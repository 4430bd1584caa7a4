package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Runtime metrics read around every query, and the heap-in-use the
// sampler and liveHeap read.
const (
	mAllocBytes   = "/gc/heap/allocs:bytes"
	mAllocObjects = "/gc/heap/allocs:objects"
	mHeapObjects  = "/memory/classes/heap/objects:bytes"
	mGCCycles     = "/gc/cycles/total:gc-cycles"
	mGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU     = "/cpu/classes/total:cpu-seconds"
	mIdleCPU      = "/cpu/classes/idle:cpu-seconds"
)

var probeNames = []string{mAllocBytes, mAllocObjects, mGCCycles, mGCCPU, mTotalCPU, mIdleCPU}

// probe is a snapshot of the process counters a query is charged with.
type probe struct {
	wall    time.Time
	cpu     time.Duration // user + system, from getrusage
	runtime map[string]float64
}

func readProbe() probe {
	samples := make([]metrics.Sample, len(probeNames))
	for i, n := range probeNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	p := probe{runtime: make(map[string]float64, len(samples))}
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			p.runtime[s.Name] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			p.runtime[s.Name] = s.Value.Float64()
		}
	}
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail; a zero reading
	// would show as a zero cpu_s_per_query.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	p.wall = time.Now()
	return p
}

// cost is what one query cost the process, as the difference of two
// probes.
type cost struct {
	wall, cpu      time.Duration
	allocBytes     float64
	allocs         float64
	gcCycles       float64
	gcCPU, busyCPU float64 // runtime's estimates, in CPU seconds
	peakHeap       float64 // bytes, from the heap sampler
}

func between(a, b probe) cost {
	d := func(n string) float64 { return b.runtime[n] - a.runtime[n] }
	return cost{
		wall:       b.wall.Sub(a.wall),
		cpu:        b.cpu - a.cpu,
		allocBytes: d(mAllocBytes),
		allocs:     d(mAllocObjects),
		gcCycles:   d(mGCCycles),
		gcCPU:      d(mGCCPU),
		busyCPU:    d(mTotalCPU) - d(mIdleCPU),
	}
}

// heapSampler records the highest heap-in-use it sees. The heap peaks
// just before each collection, between any two probes, so it polls
// from its own goroutine.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done sync.WaitGroup
}

const heapSampleEvery = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: mHeapObjects}}
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// reset starts a new observation window and returns the peak of the
// previous one.
func (h *heapSampler) reset() float64 { return float64(h.peak.Swap(0)) }

// close stops the sampler and waits for its goroutine to exit.
func (h *heapSampler) close() {
	close(h.stop)
	h.done.Wait()
}

// liveHeap forces a full collection and returns the bytes of heap
// objects that survive it.
func liveHeap() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: mHeapObjects}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// median returns the middle value (the mean of the two middle values
// for an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is num/den, or 1 when den is 0: a mechanism that had nothing to
// work on saved nothing.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 1
	}
	return num / den
}

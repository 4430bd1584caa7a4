package main

import (
	"fmt"
	"slices"
	"time"

	"dbspinner"
	"dbspinner/internal/sqltypes"
)

// setupReps is how many times a run sets the engine up; setup_s and
// heap_live_mb report the median, which a single slow set-up cannot
// move.
const setupReps = 5

// minQueries is the fewest timed queries a run makes, however short its
// window.
const minQueries = 5

// setUp builds a loaded engine and runs the warm-up query on it. It
// returns the engine, the warm-up rows, the seconds the load and the
// warm-up took, and the live heap the loaded tables hold, measured with
// a forced collection between the two that the seconds leave out.
func (in *instance) setUp() (e *dbspinner.Engine, rows []sqltypes.Row, secs, live float64, err error) {
	base := liveHeap()
	start := time.Now()
	e, err = in.load()
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("set-up: %w", err)
	}
	loaded := time.Since(start)
	live = liveHeap() - base
	start = time.Now()
	v := in.variant(0)
	rows, err = in.run(e, v)
	secs = (loaded + time.Since(start)).Seconds()
	if err == nil {
		err = in.check(v, rows)
	}
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("warm-up query: %w", err)
	}
	return e, rows, secs, live, nil
}

// references runs the iterative form of every stored-procedure variant
// once on e, outside any timing, and keeps its oracle-checked rows: the
// procedure must reproduce them (Figure 11 compares equal answers).
func (in *instance) references(e *dbspinner.Engine) error {
	if !in.proc {
		return nil
	}
	for _, v := range in.variants {
		r, err := e.Query(v.query)
		if err == nil {
			err = in.check(v, r.Rows)
		}
		if err != nil {
			return fmt.Errorf("iterative form of the procedure: %w", err)
		}
		v.ref = r.Rows
	}
	return nil
}

// verify is the correctness gate on one query's outcome.
func (in *instance) verify(v *variant, rows []sqltypes.Row, err error) error {
	if err != nil {
		return err
	}
	if err := in.check(v, rows); err != nil {
		return err
	}
	if v.ref != nil {
		if err := sameRows(rows, v.ref); err != nil {
			return fmt.Errorf("procedure rows differ from the iterative query's: %w", err)
		}
	}
	return nil
}

// measureEndToEnd sets the engine up setupReps times, then runs the
// workload's query back to back for the window, untraced, charging
// each query with the wall clock, CPU and allocations between its two
// probes. Checking the answer happens outside the probes. Times are
// medians over the queries; allocations are means per query, taken per
// source of the rotation and then averaged, so every source weighs
// alike.
func measureEndToEnd(in *instance, window time.Duration) (*report, error) {
	rep := newReport()
	var setups, lives []float64
	var e *dbspinner.Engine
	for i := 0; i < setupReps; i++ {
		e = nil // the previous engine must not count in this one's footprint
		eng, _, secs, live, err := in.setUp()
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs)
		lives = append(lives, live)
		e = eng
	}
	if err := in.references(e); err != nil {
		return nil, err
	}

	var walls, cpus, peaks []float64
	bytes := make([]float64, len(in.variants))
	allocs := make([]float64, len(in.variants))
	runs := make([]float64, len(in.variants))
	heap := startHeapSampler()
	defer heap.close()
	deadline := time.Now().Add(window)
	for i := 0; i < minQueries || time.Now().Before(deadline); i++ {
		v := in.variant(i)
		checkpoint(e)
		heap.reset()
		before := readProbe()
		rows, err := in.run(e, v)
		c := between(before, readProbe())
		c.peakHeap = heap.reset()
		rep.record(in.verify(v, rows, err))
		walls = append(walls, c.wall.Seconds())
		cpus = append(cpus, c.cpu.Seconds())
		peaks = append(peaks, c.peakHeap)
		bytes[i%len(runs)] += c.allocBytes
		allocs[i%len(runs)] += c.allocs
		runs[i%len(runs)]++
	}

	rep.values["query_s"] = median(walls)
	rep.values["cpu_s_per_query"] = median(cpus)
	rep.values["alloc_mb_per_query"] = meanOfMeans(bytes, runs) / 1e6
	rep.values["allocs_per_query"] = meanOfMeans(allocs, runs)
	rep.values["peak_heap_mb"] = median(peaks) / 1e6
	rep.values["heap_live_mb"] = median(lives) / 1e6
	rep.values["setup_s"] = median(setups)
	rep.notef("# query_s: median of %d queries, one client in a closed loop (min %.4f s, max %.4f s)",
		len(walls), slices.Min(walls), slices.Max(walls))
	rep.notef("# setup_s, heap_live_mb: median of %d set-ups", setupReps)
	return rep, nil
}

// checkpoint truncates the engine's in-memory write-ahead log and
// zeroes its counters before a query, as a database checkpoints between
// batches. Without it the log of the stored procedure grows by about
// 1.5 MB a query for the whole run, and each query would pay for the
// ones before it.
func checkpoint(e *dbspinner.Engine) { e.ResetStats() }

// meanOfMeans averages sums[i]/counts[i] over the entries with a
// non-zero count.
func meanOfMeans(sums, counts []float64) float64 {
	var total float64
	n := 0
	for i, c := range counts {
		if c > 0 {
			total += sums[i] / c
			n++
		}
	}
	return total / float64(max(n, 1))
}

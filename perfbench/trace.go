package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval of the traced run. Times are offsets from
// the recorder's epoch; Parent is 0 for a query's root span.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Query  int           `json:"query"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps the spans of a traced run in memory; they are written
// out once, when the run ends.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(query, parent int, name string) int {
	d := time.Since(r.epoch)
	return r.add(query, parent, name, d, d)
}

// end closes the span opened by begin.
func (r *recorder) end(id int) { r.spans[id-1].End = time.Since(r.epoch) }

// add records a span whose bounds are already known and returns its id.
func (r *recorder) add(query, parent int, name string, start, end time.Duration) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Query: query, Name: name, Start: start, End: end})
	return id
}

// write saves the spans and the run's description as JSON.
func (r *recorder) write(path string, meta map[string]any) error {
	b, err := json.Marshal(map[string]any{"meta": meta, "spans": r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time, keyed by span id: its
// duration minus the part of its interval that its children cover.
// Children may overlap each other or stick out of the parent; only the
// union of their intervals clipped to the parent is subtracted.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals
// clipped to the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, reached time.Duration
	for i, v := range ivs {
		if i == 0 || v.lo > reached {
			total += v.hi - v.lo
			reached = v.hi
		} else if v.hi > reached {
			total += v.hi - reached
			reached = v.hi
		}
	}
	return total
}

package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"dbspinner/internal/sqltypes"
)

func TestSelfTimeNested(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "query", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "execute", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "step", Start: 20, End: 30},
		{ID: 4, Parent: 1, Name: "parse", Start: 0, End: 5},
	}
	got := selfTimes(spans)
	want := map[int]time.Duration{1: 65, 2: 20, 3: 10, 4: 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Children [10,50] and [30,70] overlap, and [90,120] sticks out of
	// the parent: only [10,70] and [90,100] are covered.
	spans := []span{
		{ID: 1, Name: "query", Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 50},
		{ID: 3, Parent: 1, Start: 30, End: 70},
		{ID: 4, Parent: 1, Start: 90, End: 120},
		{ID: 5, Parent: 1, Start: 35, End: 45}, // inside another child
	}
	if got := selfTimes(spans)[1]; got != 30 {
		t.Fatalf("self time of the parent %v, want 30", got)
	}
}

func TestRecorderSpansNest(t *testing.T) {
	r := newRecorder()
	q := r.begin(1, 0, "query")
	c := r.begin(1, q, "parse")
	r.end(c)
	r.end(q)
	if s := r.spans[c-1]; s.Parent != q || s.Start < r.spans[q-1].Start || s.End > r.spans[q-1].End {
		t.Fatalf("child %+v does not nest in %+v", s, r.spans[q-1])
	}
}

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	for _, mode := range []weightMode{rankWeights, pathWeights} {
		a, b := generate(500, 3, mode, 7), generate(500, 3, mode, 7)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("mode %d: one seed gave two graphs", mode)
		}
		if reflect.DeepEqual(a, generate(500, 3, mode, 8)) {
			t.Fatalf("mode %d: seeds 7 and 8 gave the same graph", mode)
		}
	}
	if !reflect.DeepEqual(availability(500, availFrac, 7), availability(500, availFrac, 7)) {
		t.Fatal("one seed gave two status columns")
	}
	if reflect.DeepEqual(availability(500, availFrac, 7), availability(500, availFrac, 8)) {
		t.Fatal("seeds 7 and 8 gave the same status column")
	}
}

func TestEveryEdgeHasItsReverse(t *testing.T) {
	for _, mode := range []weightMode{rankWeights, pathWeights} {
		g := generate(1000, 3, mode, 3)
		type pair struct{ a, b int64 }
		weight := map[pair]float64{}
		for _, e := range g.edges {
			p := pair{e.Src, e.Dst}
			if e.Src == e.Dst {
				t.Fatalf("self-loop on %d", e.Src)
			}
			if _, dup := weight[p]; dup {
				t.Fatalf("edge %v appears twice", p)
			}
			weight[p] = e.Weight
		}
		for p, w := range weight {
			rw, ok := weight[pair{p.b, p.a}]
			if !ok {
				t.Fatalf("mode %d: edge %d->%d has no reverse", mode, p.a, p.b)
			}
			if mode == pathWeights && rw != w {
				t.Fatalf("edge %d->%d weighs %v, its reverse %v", p.a, p.b, w, rw)
			}
		}
		if len(weight) < 2*3*990 {
			t.Fatalf("mode %d: %d directed edges, want about 6 per node", mode, len(weight))
		}
	}
}

func TestAvailabilityIsExact(t *testing.T) {
	n := 0
	for _, s := range availability(2000, availFrac, 5) {
		n += int(s)
	}
	if n != 1600 {
		t.Fatalf("%d of 2000 nodes available, want 1600", n)
	}
}

func TestSourcesByReachReachMostNodes(t *testing.T) {
	w, err := findWorkload("sssp-vs")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		in := newInstance(w, seed)
		if len(in.variants) != sourcesPerRun {
			t.Fatalf("seed %d: %d sources, want %d", seed, len(in.variants), sourcesPerRun)
		}
		for _, v := range in.variants {
			if 2*v.reach <= in.nodes {
				t.Errorf("seed %d: source %d reaches %d of %d nodes", seed, v.source, v.reach, in.nodes)
			}
		}
	}
}

var (
	namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !namePattern.MatchString(s.name) {
			t.Errorf("metric name %q", s.name)
		}
		if !unitPattern.MatchString(s.unit) {
			t.Errorf("metric %s: unit %q", s.name, s.unit)
		}
		if s.better != "lower" && s.better != "higher" {
			t.Errorf("metric %s: better %q", s.name, s.better)
		}
		if seen[s.name] {
			t.Errorf("metric %s listed twice", s.name)
		}
		seen[s.name] = true
	}
	for _, w := range workloads {
		if !namePattern.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or a why over 200 characters", w.name)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the runs are
// judged by, in step with what the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	compare := func(kind string, listed []metric, specs []metricSpec, bounded bool) {
		if len(listed) != len(specs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(listed), len(specs))
		}
		for i, s := range specs {
			m := listed[i]
			if m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, m, s)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd, true)
	compare("per_layer", b.PerLayer, perLayer, false)
}

// smallInstance is a workload shrunk so that the engine answers in
// milliseconds.
func smallInstance(t *testing.T, name string, nodes int) *instance {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.nodes = nodes
	return newInstance(w, 4)
}

func TestCheckRejectsWrongAndIdleAnswers(t *testing.T) {
	for _, name := range []string{"pagerank", "sssp-vs", "pagerank-vs-mpp"} {
		in := smallInstance(t, name, 300)
		_, rows, _, _, err := in.setUp()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		v := in.variant(0)
		wrong := append([]sqltypes.Row(nil), rows...)
		for i, r := range wrong {
			if in.moved(r[1].Float()) {
				wrong[i] = sqltypes.Row{r[0], sqltypes.NewFloat(r[1].Float() + 1e-3)}
				break
			}
		}
		if in.check(v, wrong) == nil {
			t.Errorf("%s: a wrong value passed the oracle check", name)
		}
		idle := make([]sqltypes.Row, len(rows))
		for i, r := range rows {
			initial := sqltypes.NewFloat(0)
			if in.shortestPath {
				initial = sqltypes.NewFloat(9999999)
			}
			idle[i] = sqltypes.Row{r[0], initial}
		}
		v.want = map[int64]float64{}
		for _, r := range idle {
			v.want[r[0].Int()] = r[1].Float()
		}
		if in.check(v, idle) == nil {
			t.Errorf("%s: rows that never moved passed the activity floor", name)
		}
	}
}

func TestProcedureMatchesIterativeForm(t *testing.T) {
	in := smallInstance(t, "sssp-vs-proc", 300)
	e, _, _, _, err := in.setUp()
	if err != nil {
		t.Fatal(err)
	}
	if err := in.references(e); err != nil {
		t.Fatal(err)
	}
	for i := range in.variants {
		v := in.variant(i)
		rows, err := in.run(e, v)
		if err := in.verify(v, rows, err); err != nil {
			t.Fatalf("source %d: %v", v.source, err)
		}
	}
	if n := len(e.Tables()); n != 2 {
		t.Fatalf("%d tables after the procedures, want edges and vertexStatus only", n)
	}
}

func TestTracedRunPassesItsGates(t *testing.T) {
	for _, name := range []string{"pagerank", "sssp-vs", "pagerank-vs-mpp", "sssp-vs-proc"} {
		in := smallInstance(t, name, 600)
		rec := newRecorder()
		rep, err := measureLayers(in, time.Millisecond, rec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.failed != 0 {
			t.Fatalf("%s: %d of %d queries failed, first: %v", name, rep.failed, rep.attempted, rep.firstErr)
		}
		if c := rep.values["trace.self_coverage_frac"]; c < minCoverage || c > 1 {
			t.Errorf("%s: self times cover %v of the traced query", name, c)
		}
		if rep.values["parser.parse_us"] <= 0 || rep.values["trace.query_s"] <= 0 {
			t.Errorf("%s: parse or query time missing: %v", name, rep.values)
		}
		if in.proc && rep.values["txn.wal_records"] == 0 {
			t.Errorf("%s: the procedure logged nothing", name)
		}
		if !in.proc && rep.values["core.updated_rows"] == 0 {
			t.Errorf("%s: no rows written", name)
		}
		if in.cfg.Parallel && rep.values["mpp.rows_shuffled"] == 0 {
			t.Errorf("%s: nothing shuffled", name)
		}
	}
}

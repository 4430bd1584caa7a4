package main

import (
	"fmt"
	"math"

	"dbspinner"
	"dbspinner/internal/graphalgo"
	"dbspinner/internal/sqltypes"
)

// iterations is the UNTIL n ITERATIONS bound of every query.
const iterations = 10

// availFrac is the share of nodes vertexStatus marks available.
const availFrac = 0.8

// activeFloor is the least share of result rows whose value must have
// moved off its initial value (a rank above 0, a finite distance): a
// query that changes almost nothing measures nothing.
const activeFloor = 0.5

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name    string
	why     string
	nodes   int
	attach  int // undirected edges per new node: the node:edge ratio
	weights weightMode
	cfg     dbspinner.Config
	// shortestPath selects the SSSP-VS query (source picked by reach)
	// over PageRank; vs adds the vertexStatus join to PageRank.
	shortestPath bool
	vs           bool
	// proc drives the stored-procedure form through Engine.Exec/Query
	// instead of one iterative query.
	proc bool
}

// workloads are sized so that one query takes roughly 0.3-1 s on a
// 2-core machine. Every config is the engine default unless the
// workload needs otherwise, so a better default shows up as a gain.
var workloads = []workload{
	{
		name:  "pagerank",
		why:   "Fig 2 PR on a DBLP-ratio graph, full-update rename path: every row changes each iteration, so frontier mechanisms have nothing to save",
		nodes: 2000, attach: 3, weights: rankWeights,
	},
	{
		name:  "sssp-vs",
		why:   "Fig 7 SSSP with the vertexStatus join: partial-update merge path, common result, frontier below the row count",
		nodes: 2000, attach: 3, weights: pathWeights, shortestPath: true,
	},
	{
		name:  "pagerank-vs-mpp",
		why:   "PR-VS on a denser Pokec-ratio graph on the MPP machine with 2 partitions: the only workload with exchanges and shuffle elision",
		nodes: 1000, attach: 19, weights: rankWeights, vs: true,
		cfg: dbspinner.Config{Parallel: true, Partitions: 2},
	},
	{
		name:  "sssp-vs-proc",
		why:   "sssp-vs as a stored procedure through Engine.Exec/Query: per-statement parse, plan, locks and WAL; rows must equal sssp-vs",
		nodes: 2000, attach: 3, weights: pathWeights, shortestPath: true, proc: true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// sourcesPerRun is how many SSSP sources a run rotates through, query
// by query. One source's frontier can run a few percent heavier or
// lighter than another's; rotating through several keeps that from
// deciding a run's figures.
const sourcesPerRun = 8

// instance is a workload made concrete for one seed: the generated
// inputs and the queries a run rotates through.
type instance struct {
	workload
	g        *graph
	status   []int64
	edges    []sqltypes.Row
	avail    []sqltypes.Row
	variants []*variant
}

// variant is one query of the rotation and the oracle's answer to it.
type variant struct {
	source int64 // SSSP source; 0 for PageRank
	reach  int   // nodes the source reaches within the iterations
	query  string
	stmts  []procStmt // the stored-procedure form, when proc
	// want maps node -> expected value; NaN stands for NULL.
	want map[int64]float64
	// ref holds the iterative query's rows, which the stored procedure
	// must reproduce; filled on first use.
	ref []sqltypes.Row
}

func newInstance(w workload, seed int64) *instance {
	in := &instance{workload: w}
	in.g = generate(w.nodes, w.attach, w.weights, seed)
	in.status = availability(w.nodes, availFrac, seed)
	in.edges = edgeRows(in.g)
	in.avail = statusRows(in.status)
	switch {
	case w.shortestPath:
		// The vertexStatus join drops every edge into an unavailable
		// node, so SSSP-VS is plain SSSP over the surviving edges.
		var kept []graphalgo.Edge
		for _, e := range in.g.edges {
			if in.status[e.Dst] != 0 {
				kept = append(kept, e)
			}
		}
		sources, reaches := pickSources(in.g, in.status, iterations, sourcesPerRun)
		for i, src := range sources {
			v := &variant{source: src, reach: reaches[i], query: ssspVSQuery(src, iterations),
				want: graphalgo.SSSP(kept, src, iterations)}
			if w.proc {
				v.stmts = ssspVSProc(src, iterations)
			}
			in.variants = append(in.variants, v)
		}
	case w.vs:
		status := make(map[int64]int64, w.nodes)
		for n, s := range in.status {
			status[int64(n)] = s
		}
		in.variants = []*variant{{query: prQuery(iterations, true),
			want: graphalgo.PageRankVS(in.g.edges, status, iterations)}}
	default:
		in.variants = []*variant{{query: prQuery(iterations, false),
			want: graphalgo.PageRank(in.g.edges, iterations)}}
	}
	return in
}

// variant returns the query the i-th query of a run uses.
func (in *instance) variant(i int) *variant { return in.variants[i%len(in.variants)] }

// load builds an engine on the workload's config holding the edges and
// vertexStatus tables.
func (in *instance) load() (*dbspinner.Engine, error) {
	e := dbspinner.New(in.cfg)
	for _, t := range []struct {
		ddl  string
		name string
		rows []sqltypes.Row
	}{
		{"CREATE TABLE edges (src int, dst int, weight float)", "edges", in.edges},
		{"CREATE TABLE vertexStatus (node int PRIMARY KEY, status int)", "vertexStatus", in.avail},
	} {
		if _, err := e.Exec(t.ddl); err != nil {
			return nil, err
		}
		if err := e.BulkInsert(t.name, t.rows); err != nil {
			return nil, fmt.Errorf("load %s: %w", t.name, err)
		}
	}
	return e, nil
}

// run executes one query of the workload on e, untraced.
func (in *instance) run(e *dbspinner.Engine, v *variant) ([]sqltypes.Row, error) {
	if in.proc {
		return runProc(e, v.stmts, nil)
	}
	r, err := e.Query(v.query)
	if err != nil {
		return nil, err
	}
	return r.Rows, nil
}

// stmtHook wraps each procedure statement; the traced run uses it to
// record spans, the untraced run passes nil.
type stmtHook func(st procStmt, call func() error) error

// runProc executes the stored-procedure statements in order and returns
// the final SELECT's rows. When a statement fails the working tables
// are dropped anyway, so the next query starts clean.
func runProc(e *dbspinner.Engine, stmts []procStmt, hook stmtHook) (rows []sqltypes.Row, err error) {
	if hook == nil {
		hook = func(_ procStmt, call func() error) error { return call() }
	}
	for i, st := range stmts {
		st := st
		err = hook(st, func() error {
			if st.kind == "select" {
				r, qerr := e.Query(st.sql)
				if qerr == nil {
					rows = r.Rows
				}
				return qerr
			}
			_, xerr := e.Exec(st.sql)
			return xerr
		})
		if err != nil {
			for _, t := range []string{"sp_sssp", "sp_sssp_inter"} {
				_, _ = e.Exec("DROP TABLE IF EXISTS " + t) // best effort; the statement error is what is reported
			}
			return nil, fmt.Errorf("procedure statement %d (%s): %w", i+1, st.kind, err)
		}
	}
	return rows, nil
}

// check compares a query's rows with the oracle, within the tolerances
// the repository's oracle tests use, and applies the activity floor.
func (in *instance) check(v *variant, rows []sqltypes.Row) error {
	if len(rows) != in.nodes {
		return fmt.Errorf("%d rows, want one per node (%d)", len(rows), in.nodes)
	}
	seen := make(map[int64]bool, len(rows))
	active := 0
	for _, r := range rows {
		if len(r) != 2 {
			return fmt.Errorf("row %v: want 2 columns", r)
		}
		node := r[0].Int()
		if seen[node] {
			return fmt.Errorf("node %d appears twice", node)
		}
		seen[node] = true
		want, ok := v.want[node]
		if !ok {
			if !in.shortestPath {
				return fmt.Errorf("node %d is not in the oracle", node)
			}
			want = graphalgo.Infinity // no edge into it survives the status join
		}
		if math.IsNaN(want) || r[1].IsNull() {
			if !math.IsNaN(want) || !r[1].IsNull() {
				return fmt.Errorf("node %d: got %v, oracle %v (NaN is NULL)", node, r[1], want)
			}
			continue
		}
		got := r[1].Float()
		tol := 1e-9
		if !in.shortestPath {
			tol *= 1 + math.Abs(want)
		}
		if math.Abs(got-want) > tol {
			return fmt.Errorf("node %d: got %v, oracle %v", node, got, want)
		}
		if in.moved(got) {
			active++
		}
	}
	if frac := float64(active) / float64(len(rows)); frac < activeFloor {
		return fmt.Errorf("only %.3f of rows moved off their initial value (floor %.2f)", frac, activeFloor)
	}
	return nil
}

// moved reports whether a result value has left the value every row
// starts from: a rank above 0, a distance below the sentinel.
func (in *instance) moved(x float64) bool {
	if in.shortestPath {
		return x != graphalgo.Infinity
	}
	return x != 0
}

// sameRows requires two results to hold the same value for every node,
// within the oracle tolerance: the stored procedure must answer exactly
// what the iterative query answers (Figure 11).
func sameRows(a, b []sqltypes.Row) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows vs %d", len(a), len(b))
	}
	vals := make(map[int64]sqltypes.Value, len(b))
	for _, r := range b {
		vals[r[0].Int()] = r[1]
	}
	for _, r := range a {
		v, ok := vals[r[0].Int()]
		if !ok {
			return fmt.Errorf("node %d missing", r[0].Int())
		}
		if v.IsNull() != r[1].IsNull() {
			return fmt.Errorf("node %d: %v vs %v", r[0].Int(), r[1], v)
		}
		if !v.IsNull() && math.Abs(v.Float()-r[1].Float()) > 1e-9*(1+math.Abs(v.Float())) {
			return fmt.Errorf("node %d: %v vs %v", r[0].Int(), r[1], v)
		}
	}
	return nil
}

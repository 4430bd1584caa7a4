package main

import (
	"context"
	"fmt"
	"time"

	"dbspinner"
	"dbspinner/internal/ast"
	"dbspinner/internal/catalog"
	"dbspinner/internal/core"
	"dbspinner/internal/exec"
	"dbspinner/internal/parser"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
	"dbspinner/internal/verify"
)

// minCoverage is the least share of a traced iterative query's wall
// clock that the layer spans' self times must account for; the rest is
// time between the calls that no layer owns.
const minCoverage = 0.95

// stepKind groups a program step under the step.* metric it is timed
// in.
func stepKind(s core.Step) string {
	switch s.(type) {
	case *core.MaterializeStep:
		return "materialize"
	case *core.MergeStep:
		return "merge"
	case *core.MaintainAggStep:
		return "maintain_agg"
	case *core.DeltaMaterializeStep:
		return "delta_materialize"
	case *core.RenameStep:
		return "rename"
	case *core.CopyBackStep:
		return "copy_back"
	case *core.TruncateStep:
		return "truncate"
	case *core.InitLoopStep, *core.UpdateLoopStep, *core.LoopStep:
		return "loop"
	}
	return "other"
}

// layerStore is the benchmark's own catalog and runtime, loaded through
// catalog.Create and Table.Insert, that the traced iterative queries
// run on.
type layerStore struct {
	rt    *exec.StoreRuntime
	opts  core.Options
	loadS float64
	// bytesPerEdge is the live heap the edges table holds per edge.
	bytesPerEdge float64
}

func (in *instance) loadStore() (*layerStore, error) {
	// The engine's default partition count, so the traced programs are
	// planned like the engine's.
	parts := in.cfg.Partitions
	if parts < 1 {
		parts = 4
	}
	cat := catalog.New(parts)
	base := liveHeap()
	start := time.Now()
	edges, err := cat.Create("edges", sqltypes.Schema{
		{Name: "src", Type: sqltypes.Int}, {Name: "dst", Type: sqltypes.Int}, {Name: "weight", Type: sqltypes.Float},
	}, -1)
	if err != nil {
		return nil, err
	}
	for _, e := range in.g.edges {
		edges.Insert(sqltypes.Row{sqltypes.NewInt(e.Src), sqltypes.NewInt(e.Dst), sqltypes.NewFloat(e.Weight)})
	}
	load := time.Since(start)
	edgeBytes := liveHeap() - base
	start = time.Now()
	status, err := cat.Create("vertexStatus", sqltypes.Schema{
		{Name: "node", Type: sqltypes.Int}, {Name: "status", Type: sqltypes.Int},
	}, 0)
	if err != nil {
		return nil, err
	}
	for n := 1; n < len(in.status); n++ {
		status.Insert(sqltypes.Row{sqltypes.NewInt(int64(n)), sqltypes.NewInt(in.status[n])})
	}
	load += time.Since(start)

	opts := core.DefaultOptions()
	opts.Parts = parts
	opts.Parallel = in.cfg.Parallel
	opts.Verify = false // verify.Check runs as its own span
	opts.Trace = true
	return &layerStore{
		rt:           exec.NewStoreRuntime(cat, storage.NewResultStore()),
		opts:         opts,
		loadS:        load.Seconds(),
		bytesPerEdge: edgeBytes / float64(len(in.g.edges)),
	}, nil
}

// tracedCTE runs the iterative query by calling the layers in turn —
// parser.Parse, core.Rewrite, verify.Check, Program.RunContext — each
// inside its own span. The program's steps are not instrumented from
// outside; the iteration trace gives each step's cumulative wall
// clock, and those are laid end to end inside the execute span,
// grouped by step kind, followed by the final query (the rest of the
// trace's total). Steps run one after another on the default config,
// so the layout loses only their interleaving.
func (in *instance) tracedCTE(st *layerStore, rec *recorder, qid int, q *variant, engineRows []sqltypes.Row) (map[string]float64, error) {
	first := len(rec.spans)
	root := rec.begin(qid, 0, "query")
	sp := rec.begin(qid, root, "parse")
	stmt, err := parser.Parse(q.query)
	rec.end(sp)
	if err != nil {
		rec.end(root)
		return nil, err
	}
	sel, ok := stmt.(*ast.SelectStmt)
	if !ok {
		rec.end(root)
		return nil, fmt.Errorf("query parsed to %T, want a SELECT", stmt)
	}
	sp = rec.begin(qid, root, "rewrite")
	prog, err := core.Rewrite(sel, st.rt, st.opts)
	rec.end(sp)
	if err != nil {
		rec.end(root)
		return nil, err
	}
	sp = rec.begin(qid, root, "verify")
	diags := verify.Check(prog, sel)
	rec.end(sp)
	x := rec.begin(qid, root, "execute")
	var cs core.Stats
	rows, err := prog.RunContext(context.Background(), st.rt, &cs)
	rec.end(x)
	rec.end(root)
	if err != nil {
		return nil, err
	}
	tr := cs.Trace
	if tr == nil {
		return nil, fmt.Errorf("traced program returned no iteration trace")
	}

	// Lay the step kinds out in program order inside execute.
	var order []string
	walls := map[string]time.Duration{}
	for i, s := range prog.Steps {
		k := stepKind(s)
		if _, seen := walls[k]; !seen {
			order = append(order, k)
		}
		if i < len(tr.Steps) {
			walls[k] += tr.Steps[i].Wall
		}
	}
	at := rec.spans[x-1].Start
	var stepped time.Duration
	for _, k := range order {
		rec.add(qid, x, "step."+k, at, at+walls[k])
		at += walls[k]
		stepped += walls[k]
	}
	final := max(tr.TotalWall-stepped, 0)
	rec.add(qid, x, "final", at, at+final)

	spans := rec.spans[first:]
	self := selfTimes(spans)
	v := map[string]float64{"parser.statements": 1}
	var covered time.Duration
	for _, s := range spans {
		if s.ID != root && s.ID != x {
			covered += self[s.ID]
		}
		switch s.Name {
		case "parse":
			v["parser.parse_us"] += float64(self[s.ID]) / 1e3
		case "rewrite":
			v["core.rewrite_ms"] = float64(self[s.ID]) / 1e6
		case "verify":
			v["verify.check_ms"] = float64(self[s.ID]) / 1e6
		case "final":
			v["core.final_ms"] = float64(self[s.ID]) / 1e6
		}
	}
	for _, k := range order {
		v["step."+k+"_s"] = walls[k].Seconds()
	}
	queryWall := rec.spans[root-1].End - rec.spans[root-1].Start
	v["trace.query_s"] = queryWall.Seconds()
	v["trace.self_coverage_frac"] = float64(covered) / float64(queryWall)
	v["core.execute_s"] = (rec.spans[x-1].End - rec.spans[x-1].Start).Seconds()
	v["verify.diagnostics"] = float64(len(diags))

	var iterMs []float64
	var frontier, written float64
	frontierIters := 0
	for _, s := range tr.Spans {
		iterMs = append(iterMs, float64(s.Wall)/1e6)
		frontier += float64(s.Frontier)
		written += float64(s.Rows)
		if s.Frontier > 0 {
			frontierIters++
		}
	}
	v["core.iterations"] = float64(cs.Iterations)
	v["core.iter_ms.p50"] = median(iterMs)
	v["core.frontier_frac"] = frontier / max(written, 1)
	v["core.ri_input_frac"] = ratio(float64(cs.RiInputRows), float64(cs.RiFullRows))
	v["core.agg_input_frac"] = ratio(float64(cs.AggInputRows), float64(cs.AggFullRows))
	v["core.updated_rows"] = float64(cs.UpdatedRows)
	v["core.materialized_cells"] = float64(cs.MaterializedCells)
	v["core.moved_rows"] = float64(cs.MovedRows)
	v["exec.rows_scanned"] = float64(cs.Exec.RowsScanned)
	v["exec.rows_joined"] = float64(cs.Exec.RowsJoined)
	v["exec.rows_grouped"] = float64(cs.Exec.RowsGrouped)
	v["exec.rows_agg_input"] = float64(cs.Exec.RowsAggInput)
	v["exec.result_cells_read"] = float64(cs.Exec.ResultCellsRead)
	v["mpp.rows_shuffled"] = float64(cs.RowsShuffled)
	v["mpp.shuffles_elided"] = float64(cs.ShufflesElided)
	v["mpp.rows_elided"] = float64(cs.RowsElided)
	if moved := cs.RowsElided + cs.RowsShuffled; moved > 0 {
		v["mpp.elided_frac"] = float64(cs.RowsElided) / float64(moved)
	}

	// Gates: the answer, the verifier, and signs that the loop did
	// work. A merge-path program must find a non-empty frontier in
	// most iterations.
	if err := in.check(q, rows); err != nil {
		return v, err
	}
	if err := sameRows(rows, engineRows); err != nil {
		return v, fmt.Errorf("traced rows differ from the engine's: %w", err)
	}
	if len(diags) > 0 {
		return v, fmt.Errorf("gate: verifier reported %d diagnostics, first: %s", len(diags), diags[0])
	}
	if cs.UpdatedRows == 0 {
		return v, fmt.Errorf("gate: no rows written to working tables")
	}
	if _, merge := walls["merge"]; merge && 2*frontierIters <= len(tr.Spans) {
		return v, fmt.Errorf("gate: frontier non-empty in only %d of %d iterations", frontierIters, len(tr.Spans))
	}
	if c := v["trace.self_coverage_frac"]; c < minCoverage {
		return v, fmt.Errorf("gate: layer self times cover %.3f of the traced query (floor %.2f)", c, minCoverage)
	}
	return v, nil
}

// tracedProc runs the stored procedure through Engine.Exec/Query with a
// parse span (parser.Parse on the statement text) and an exec span per
// statement. The engine parses the text again inside the call, which
// the trace overhead includes.
func (in *instance) tracedProc(e *dbspinner.Engine, rec *recorder, qid int, q *variant) (map[string]float64, error) {
	first := len(rec.spans)
	before := e.Stats()
	root := rec.begin(qid, 0, "query")
	rows, err := runProc(e, q.stmts, func(st procStmt, call func() error) error {
		sp := rec.begin(qid, root, "parse")
		_, perr := parser.Parse(st.sql)
		rec.end(sp)
		if perr != nil {
			return perr
		}
		x := rec.begin(qid, root, "exec."+st.kind)
		defer rec.end(x)
		return call()
	})
	rec.end(root)
	after := e.Stats()
	if err != nil {
		return nil, err
	}
	spans := rec.spans[first:]
	self := selfTimes(spans)
	v := map[string]float64{"parser.statements": float64(len(q.stmts))}
	var covered time.Duration
	for _, s := range spans {
		if s.ID == root {
			continue
		}
		covered += self[s.ID]
		if s.Name == "parse" {
			v["parser.parse_us"] += float64(self[s.ID]) / 1e3
		} else {
			v["engine.exec_ms."+s.Name[len("exec."):]] += float64(self[s.ID]) / 1e6
		}
	}
	queryWall := rec.spans[root-1].End - rec.spans[root-1].Start
	v["trace.query_s"] = queryWall.Seconds()
	v["trace.self_coverage_frac"] = float64(covered) / float64(queryWall)
	v["exec.rows_scanned"] = float64(after.RowsScanned - before.RowsScanned)
	v["exec.rows_joined"] = float64(after.RowsJoined - before.RowsJoined)
	v["exec.rows_grouped"] = float64(after.RowsGrouped - before.RowsGrouped)
	v["exec.rows_agg_input"] = float64(after.RowsAggInput - before.RowsAggInput)
	v["exec.result_cells_read"] = float64(after.ResultCellsRead - before.ResultCellsRead)
	return v, in.verify(q, rows, nil)
}

// measureLayers is the traced run. It alternates an untraced query
// through the engine with a traced one of the same variant, so the two
// see the same machine state and the traced rows can be compared with
// the engine's, and reports the median of every per-layer metric over the
// traced queries. The transaction and Go runtime counters come from the
// untraced queries, which go through the engine as a user's would.
func measureLayers(in *instance, window time.Duration, rec *recorder) (*report, error) {
	rep := newReport()
	e, _, _, _, err := in.setUp()
	if err != nil {
		return nil, err
	}
	if err := in.references(e); err != nil {
		return nil, err
	}
	st, err := in.loadStore()
	if err != nil {
		return nil, fmt.Errorf("layer store: %w", err)
	}

	series := map[string][]float64{}
	var untraced []float64
	var gcCPU, busyCPU float64
	var engineRows []sqltypes.Row
	deadline := time.Now().Add(window)
	for i := 0; i < 2*minQueries || time.Now().Before(deadline); i++ {
		q := in.variant(i / 2)
		checkpoint(e)
		if i%2 == 0 {
			before, a := e.Stats(), readProbe()
			rows, err := in.run(e, q)
			c := between(a, readProbe())
			after := e.Stats()
			rep.record(in.verify(q, rows, err))
			engineRows = rows
			untraced = append(untraced, c.wall.Seconds())
			gcCPU += c.gcCPU
			busyCPU += c.busyCPU
			series["runtime.gc_cycles"] = append(series["runtime.gc_cycles"], c.gcCycles)
			series["txn.wal_records"] = append(series["txn.wal_records"], float64(after.WALRecords-before.WALRecords))
			series["txn.wal_bytes"] = append(series["txn.wal_bytes"], float64(after.WALBytes-before.WALBytes))
			series["txn.locks"] = append(series["txn.locks"], float64(after.LocksAcquired-before.LocksAcquired))
			series["txn.commits"] = append(series["txn.commits"], float64(after.TxnCommitted-before.TxnCommitted))
			continue
		}
		var v map[string]float64
		if in.proc {
			v, err = in.tracedProc(e, rec, i/2+1, q)
		} else {
			v, err = in.tracedCTE(st, rec, i/2+1, q, engineRows)
		}
		rep.record(err)
		for k, x := range v {
			series[k] = append(series[k], x)
		}
	}

	for _, s := range perLayer {
		rep.values[s.name] = median(series[s.name])
	}
	rep.values["storage.load_s"] = st.loadS
	rep.values["storage.bytes_per_edge"] = st.bytesPerEdge
	rep.values["runtime.gc_cpu_frac"] = gcCPU / max(busyCPU, 1e-9)
	rep.values["trace.overhead_frac"] = rep.values["trace.query_s"]/median(untraced) - 1
	rep.notef("# per-layer values: median over %d traced queries, interleaved with %d untraced ones (median %.4f s)",
		len(series["trace.query_s"]), len(untraced), median(untraced))
	return rep, nil
}

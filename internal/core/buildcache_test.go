package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/catalog"
	"dbspinner/internal/exec"
	"dbspinner/internal/parser"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
	"dbspinner/internal/workload"
)

// cacheGraphRT loads a 300-node uniform random graph (1,500 edges, so
// every edges scan crosses the executor's cancellation stride) and a
// vertexStatus table marking every third node unavailable.
func cacheGraphRT(t *testing.T) *exec.StoreRuntime {
	t.Helper()
	g := workload.Uniform(300, 1500, workload.WeightOutDegree, 7)
	cat := catalog.New(2)
	edges, err := cat.Create("edges", sqltypes.Schema{
		{Name: "src", Type: sqltypes.Int},
		{Name: "dst", Type: sqltypes.Int},
		{Name: "weight", Type: sqltypes.Float},
	}, -1)
	if err != nil {
		t.Fatal(err)
	}
	edges.InsertBatch(workload.EdgeRows(g))
	vs, err := cat.Create("vertexStatus", sqltypes.Schema{
		{Name: "node", Type: sqltypes.Int},
		{Name: "status", Type: sqltypes.Int},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for n := int64(1); n <= int64(g.NumNodes); n++ {
		vs.Insert(sqltypes.Row{sqltypes.NewInt(n), sqltypes.NewInt(min(n%3, 1))})
	}
	return exec.NewStoreRuntime(cat, storage.NewResultStore())
}

const cachePRQuery = `WITH ITERATIVE PageRank (Node, Rank, Delta)
AS ( SELECT src, 0, 0.15
     FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
 ITERATE
  SELECT PageRank.node,
    PageRank.rank + PageRank.delta,
    0.85 * SUM(IncomingRank.delta * IncomingEdges.Weight)
  FROM PageRank
    LEFT JOIN edges AS IncomingEdges ON PageRank.node = IncomingEdges.dst
    LEFT JOIN PageRank AS IncomingRank ON IncomingRank.node = IncomingEdges.src
  GROUP BY PageRank.node, PageRank.rank + PageRank.delta
 UNTIL 10 ITERATIONS )
SELECT Node, Rank FROM PageRank`

const cacheSSSPVSQuery = `WITH ITERATIVE sssp (Node, Distance, Delta)
AS (SELECT src, 9999999, CASE WHEN src = 1 THEN 0 ELSE 9999999 END
 FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
 ITERATE
  SELECT sssp.node,
    LEAST(sssp.distance, sssp.delta),
    COALESCE(MIN(IncomingDistance.delta + IncomingEdges.weight), 9999999)
  FROM sssp
   LEFT JOIN edges AS IncomingEdges ON sssp.node = IncomingEdges.dst
   LEFT JOIN sssp AS IncomingDistance ON IncomingDistance.node = IncomingEdges.src
   JOIN vertexStatus AS avail ON avail.node = IncomingEdges.dst
  WHERE IncomingDistance.Delta != 9999999 AND avail.status != 0
  GROUP BY sssp.node, LEAST(sssp.distance, sssp.delta)
 UNTIL 10 ITERATIONS)
SELECT Node, Distance FROM sssp`

func rewriteSQL(t *testing.T, rt *exec.StoreRuntime, sql string, opts Options) *Program {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := Rewrite(stmt.(*ast.SelectStmt), rt, opts)
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	return prog
}

// runWithoutBuildCache runs the program with the build cache turned off
// through the test seam.
func runWithoutBuildCache(t *testing.T, prog *Program, rt *exec.StoreRuntime) ([]sqltypes.Row, *Stats) {
	t.Helper()
	buildCacheOn = false
	defer func() { buildCacheOn = true }()
	stats := &Stats{}
	rows, err := prog.Run(rt, stats)
	if err != nil {
		t.Fatalf("run without cache: %v", err)
	}
	return rows, stats
}

func rowsText(rows []sqltypes.Row) string {
	var b strings.Builder
	for _, r := range rows {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestBuildCacheSavesInvariantScans pins what the cache saves on
// PageRank: the edges build of the loop body is made once instead of
// once per iteration, so RowsScanned drops by exactly
// (iterations-1) x |edges|, while the rows — order and float bits
// included — and the join and update counts are those of the same
// program run without the cache.
func TestBuildCacheSavesInvariantScans(t *testing.T) {
	rt := cacheGraphRT(t)
	prog := rewriteSQL(t, rt, cachePRQuery, DefaultOptions())
	offRows, off := runWithoutBuildCache(t, prog, rt)
	on := &Stats{}
	onRows, err := prog.Run(rt, on)
	if err != nil {
		t.Fatal(err)
	}
	if rowsText(onRows) != rowsText(offRows) {
		t.Fatalf("cached run diverges from the uncached run:\n got: %s\nwant: %s", rowsText(onRows), rowsText(offRows))
	}
	edges := int64(rt.Catalog.Get("edges").Len())
	if saved, want := off.Exec.RowsScanned-on.Exec.RowsScanned, int64(on.Iterations-1)*edges; saved != want {
		t.Errorf("RowsScanned saved %d, want (%d-1) x %d = %d", saved, on.Iterations, edges, want)
	}
	if on.Exec.RowsJoined != off.Exec.RowsJoined || on.UpdatedRows != off.UpdatedRows {
		t.Errorf("joined/updated rows %d/%d with the cache, %d/%d without",
			on.Exec.RowsJoined, on.UpdatedRows, off.Exec.RowsJoined, off.UpdatedRows)
	}
	if rt.Results.Len() != 0 {
		t.Errorf("leaked %d result slots", rt.Results.Len())
	}
}

// TestBuildCacheSharesCommonResult runs SSSP-VS, whose loop body joins
// the pre-loop Common#1 block in both the full plan (first iteration)
// and the maintained plan (later iterations): one build serves both,
// so the saving is (iterations-1) x |Common#1|, with identical rows
// and identical join, update and aggregate-input counts.
func TestBuildCacheSharesCommonResult(t *testing.T) {
	rt := cacheGraphRT(t)
	prog := rewriteSQL(t, rt, cacheSSSPVSQuery, DefaultOptions())
	if !prog.hasMaintainStep() {
		t.Fatal("SSSP-VS did not install aggregate maintenance")
	}
	offRows, off := runWithoutBuildCache(t, prog, rt)
	on := &Stats{}
	onRows, err := prog.Run(rt, on)
	if err != nil {
		t.Fatal(err)
	}
	if rowsText(onRows) != rowsText(offRows) {
		t.Fatalf("cached run diverges from the uncached run:\n got: %s\nwant: %s", rowsText(onRows), rowsText(offRows))
	}
	avail := map[int64]bool{}
	for _, r := range rt.Catalog.Get("vertexStatus").AllRows() {
		avail[r[0].Int()] = r[1].Int() != 0
	}
	var common int64
	for _, r := range rt.Catalog.Get("edges").AllRows() {
		if avail[r[1].Int()] {
			common++
		}
	}
	if saved, want := off.Exec.RowsScanned-on.Exec.RowsScanned, int64(on.Iterations-1)*common; saved != want {
		t.Errorf("RowsScanned saved %d, want (%d-1) x |Common#1| %d = %d", saved, on.Iterations, common, want)
	}
	if on.Exec.RowsJoined != off.Exec.RowsJoined || on.UpdatedRows != off.UpdatedRows || on.AggInputRows != off.AggInputRows {
		t.Errorf("joined/updated/agg-input rows %d/%d/%d with the cache, %d/%d/%d without",
			on.Exec.RowsJoined, on.UpdatedRows, on.AggInputRows, off.Exec.RowsJoined, off.UpdatedRows, off.AggInputRows)
	}
}

// TestLoopInvariantInputs checks the eligibility rule on the step
// programs themselves: PageRank keeps builds over the base table its
// loop body scans but not over the PageRank slot the body rebinds;
// SSSP-VS keeps the pre-loop Common#1 block and nothing the body
// writes (sssp, AggIn#sssp). vertexStatus is read only by the pre-loop
// Common#1 step, so it is not kept either.
func TestLoopInvariantInputs(t *testing.T) {
	uniq := func(names []string) string {
		set := map[string]bool{}
		for _, n := range names {
			set[strings.ToLower(n)] = true
		}
		var out []string
		for n := range set {
			out = append(out, n)
		}
		sort.Strings(out)
		return strings.Join(out, ",")
	}
	rt := cacheGraphRT(t)
	for _, c := range []struct {
		name, sql      string
		bases, results string
	}{
		{"PR", cachePRQuery, "edges", ""},
		{"SSSP-VS", cacheSSSPVSQuery, "", "common#1"},
	} {
		bases, results := rewriteSQL(t, rt, c.sql, DefaultOptions()).loopInvariantInputs()
		if got := uniq(bases); got != c.bases {
			t.Errorf("%s: base inputs %q, want %q", c.name, got, c.bases)
		}
		if got := uniq(results); got != c.results {
			t.Errorf("%s: result inputs %q, want %q", c.name, got, c.results)
		}
	}
}

// TestBuildCacheFullOuterLeftoversEveryIteration runs a loop whose body
// FULL JOINs a base table: the build over t is cached, so the matched
// flags must live on the operator, not the shared build. Iteration i
// probes key i, so exactly the four other rows of t are leftovers in
// every iteration; flags leaking across iterations would shrink the
// count to 3, 2, ...
func TestBuildCacheFullOuterLeftoversEveryIteration(t *testing.T) {
	rt := newRT(t)
	tbl, err := rt.Catalog.Create("t", sqltypes.Schema{{Name: "k", Type: sqltypes.Int}}, -1)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= 5; k++ {
		tbl.Insert(sqltypes.Row{sqltypes.NewInt(k)})
	}
	prog := rewriteSQL(t, rt, `WITH ITERATIVE c (k, leftover) AS (
			SELECT 1, 0
		 ITERATE SELECT MAX(c.k) + 1, COUNT(*) - COUNT(c.k) FROM c FULL JOIN t ON t.k = c.k
		 UNTIL 3 ITERATIONS)
		 SELECT k, leftover FROM c`, DefaultOptions())
	if bases, _ := prog.loopInvariantInputs(); len(bases) != 1 || bases[0] != "t" {
		t.Fatalf("loop-invariant base inputs = %v, want [t]", bases)
	}
	offRows, off := runWithoutBuildCache(t, prog, rt)
	on := &Stats{}
	onRows, err := prog.Run(rt, on)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsText(onRows); got != "4, 4\n" || got != rowsText(offRows) {
		t.Errorf("rows = %q with the cache, %q without; want \"4, 4\"", got, rowsText(offRows))
	}
	if saved := off.Exec.RowsScanned - on.Exec.RowsScanned; saved != 2*5 {
		t.Errorf("RowsScanned saved %d, want 2 cached iterations x 5 rows", saved)
	}
}

// midBuildCtx is a cancelable context whose Err fires once, from inside
// a hash-join build's drain (the executor polls Err every 1,024 rows),
// by calling fire. Every other poll answers like the parent context.
type midBuildCtx struct {
	context.Context
	fire  func() error
	fired atomic.Bool
}

func (c *midBuildCtx) Err() error {
	if !c.fired.Load() && insideBuild() && c.fired.CompareAndSwap(false, true) {
		return c.fire()
	}
	return c.Context.Err()
}

// insideBuild reports whether the caller runs under the build cache's
// build path.
func insideBuild() bool {
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, "exec.(*BuildCache).build") {
			return true
		}
		if !more {
			return false
		}
	}
}

func newMidBuildCtx(t *testing.T, fire func() error) *midBuildCtx {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return &midBuildCtx{Context: ctx, fire: fire}
}

// TestBuildCacheCancelMidBuildCachesNothing cancels PageRank's
// loop-body step while its join drains the edges build: the step fails
// with the cancellation, the run's cache holds no entry and no slot is
// bound. Re-running the step on a live context then makes and keeps
// the build, with the rows of the uncached plan.
func TestBuildCacheCancelMidBuildCachesNothing(t *testing.T) {
	rt := cacheGraphRT(t)
	prog := rewriteSQL(t, rt, cachePRQuery, DefaultOptions())
	var body *MaintainAggStep
	for _, s := range prog.Steps {
		if m, ok := s.(*MaintainAggStep); ok {
			body = m
		}
	}
	if body == nil {
		t.Fatalf("no aggregate-maintenance step in:\n%s", prog.Explain())
	}
	seed := storage.NewTable("PageRank", sqltypes.Schema{
		{Name: "Node", Type: sqltypes.Int}, {Name: "Rank", Type: sqltypes.Float}, {Name: "Delta", Type: sqltypes.Float},
	}, 1)
	for n := int64(1); n <= 300; n++ {
		seed.Insert(sqltypes.Row{sqltypes.NewInt(n), sqltypes.NewFloat(0), sqltypes.NewFloat(0.15)})
	}
	rt.Results.Put("PageRank", seed)
	defer rt.Results.Drop("PageRank")

	builds := prog.newBuildCache()
	ctx := &Context{RT: rt.WithBuildCache(builds), Stats: &Stats{}, builds: builds}
	ctx.Ctx = newMidBuildCtx(t, func() error { return context.Canceled })
	if _, err := body.Run(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("step error = %v, want a cancellation", err)
	}
	if n := builds.Len(); n != 0 {
		t.Errorf("canceled build left %d cache entries", n)
	}
	if rt.Results.Get(body.Into) != nil {
		t.Errorf("canceled step bound %s", body.Into)
	}

	ctx.Ctx = context.Background()
	if _, err := body.Run(ctx, 0); err != nil {
		t.Fatal(err)
	}
	got := rt.Results.Get(body.Into)
	for _, slot := range []string{body.Into, body.Acc, body.Snap} {
		defer rt.Results.Drop(slot)
	}
	if n := builds.Len(); n != 1 {
		t.Errorf("completed build left %d cache entries, want 1", n)
	}
	want, err := exec.Run(body.Full, rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rowsText(got.AllRows()) != rowsText(want) {
		t.Errorf("cached step rows diverge from the uncached plan")
	}
}

// TestBuildCacheFaultMidBuildRetries raises a fault (a panic) inside the
// first iteration's edges build under an armed retry policy: the
// iteration is retried from its checkpoint, and the retried run returns
// exactly the unfaulted run's rows with no result slot left behind.
func TestBuildCacheFaultMidBuildRetries(t *testing.T) {
	rt := cacheGraphRT(t)
	opts := DefaultOptions()
	opts.Retry = RetryPolicy{MaxAttempts: 2}
	prog := rewriteSQL(t, rt, cachePRQuery, opts)
	want, err := prog.Run(rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := newMidBuildCtx(t, func() error { panic(fmt.Errorf("injected fault mid-build")) })
	stats := &Stats{}
	got, err := prog.RunContext(ctx, rt, stats)
	if err != nil {
		t.Fatal(err)
	}
	if !ctx.fired.Load() || stats.Retries != 1 {
		t.Fatalf("fault fired=%v, retries=%d; want one fault and one retry", ctx.fired.Load(), stats.Retries)
	}
	if rowsText(got) != rowsText(want) {
		t.Errorf("retried run diverges from the unfaulted run:\n got: %s\nwant: %s", rowsText(got), rowsText(want))
	}
	if rt.Results.Len() != 0 {
		t.Errorf("leaked %d result slots", rt.Results.Len())
	}
}

package exec

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/catalog"
	"dbspinner/internal/expr"
	"dbspinner/internal/parser"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

func planSQL(t testing.TB, rt *StoreRuntime, sql string) plan.Node {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	node, err := plan.NewBuilder(rt).Build(stmt.(*ast.SelectStmt))
	if err != nil {
		t.Fatalf("build %q: %v", sql, err)
	}
	return node
}

// TestBuildCacheSharesBuildAcrossAliases runs joins over the cached
// edges table under different aliases: they share one build per key
// column, scan edges once per build, and return the uncached rows. A
// build over an input the cache does not name is never kept.
func TestBuildCacheSharesBuildAcrossAliases(t *testing.T) {
	rt := testRuntime(t)
	cache := NewBuildCache([]string{"EDGES"}, nil)
	crt := rt.WithBuildCache(cache)
	queries := []string{
		"SELECT v.node, e.src FROM vertexStatus v JOIN edges e ON v.node = e.dst ORDER BY 1, 2",
		"SELECT s.node, x.src FROM vertexStatus s LEFT JOIN edges AS x ON s.node = x.dst ORDER BY 1, 2",
		"SELECT v.node, edges.dst FROM vertexStatus v LEFT JOIN edges ON v.node = edges.src ORDER BY 1, 2",
		"SELECT e.src, v.status FROM edges e JOIN vertexStatus v ON v.node = e.dst ORDER BY 1, 2",
	}
	var cached, plain Stats
	for _, q := range queries {
		n := planSQL(t, rt, q)
		want, err := Run(n, rt, &plain)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(n, crt, &cached)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %v with the cache, %v without", q, rowStrings(got), rowStrings(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Errorf("%s: row %d = %v with the cache, %v without", q, i, got[i], want[i])
			}
		}
	}
	if n := cache.Len(); n != 2 {
		t.Errorf("cache holds %d builds, want 2 (edges keyed on dst, edges keyed on src)", n)
	}
	// The second query reuses the first one's build: 4 edges rows.
	if saved := plain.RowsScanned - cached.RowsScanned; saved != 4 {
		t.Errorf("RowsScanned saved %d, want 4", saved)
	}
	if cached.RowsJoined != plain.RowsJoined {
		t.Errorf("RowsJoined %d with the cache, %d without", cached.RowsJoined, plain.RowsJoined)
	}
	cache.Reset()
	if n := cache.Len(); n != 0 {
		t.Errorf("Reset left %d builds", n)
	}
}

// TestBuildCacheFullOuterLeftoversPerExecution re-runs a FULL JOIN over
// a cached build side, each time probing a different key: every
// execution reports its own leftovers, because the matched flags
// belong to the operator, not the shared build.
func TestBuildCacheFullOuterLeftoversPerExecution(t *testing.T) {
	cat := catalog.New(1)
	b, _ := cat.Create("b", sqltypes.Schema{{Name: "y", Type: sqltypes.Int}}, -1)
	for _, v := range []int64{1, 2, 3} {
		b.Insert(sqltypes.Row{sqltypes.NewInt(v)})
	}
	b.Insert(sqltypes.Row{sqltypes.NullValue})
	rt := NewStoreRuntime(cat, storage.NewResultStore())
	cache := NewBuildCache([]string{"b"}, nil)
	probe := func(x int64) {
		p := storage.NewTable("p", sqltypes.Schema{{Name: "x", Type: sqltypes.Int}}, 1)
		p.Insert(sqltypes.Row{sqltypes.NewInt(x)})
		rt.Results.Put("p", p)
	}
	probe(2)
	n := planSQL(t, rt, "SELECT x, y FROM p FULL JOIN b ON p.x = b.y")
	for _, c := range []struct {
		x    int64
		want []string
	}{
		{2, []string{"2, 2", "NULL, 1", "NULL, 3", "NULL, NULL"}},
		{3, []string{"3, 3", "NULL, 1", "NULL, 2", "NULL, NULL"}},
		{1, []string{"1, 1", "NULL, 2", "NULL, 3", "NULL, NULL"}},
	} {
		probe(c.x)
		rows, err := Run(n, rt.WithBuildCache(cache), nil)
		if err != nil {
			t.Fatal(err)
		}
		expectSet(t, rows, c.want...)
	}
	if cache.Len() != 1 {
		t.Errorf("cache holds %d builds, want 1", cache.Len())
	}
}

// TestBuildCacheDropsFailedBuild cancels a query while its join drains
// the build side: the partial build is not kept, and the next
// execution builds, keeps and uses a complete one.
func TestBuildCacheDropsFailedBuild(t *testing.T) {
	cat := catalog.New(2)
	big, _ := cat.Create("big", sqltypes.Schema{{Name: "k", Type: sqltypes.Int}}, 0)
	for k := int64(0); k < 3*cancelStride; k++ {
		big.Insert(sqltypes.Row{sqltypes.NewInt(k)})
	}
	one, _ := cat.Create("one", sqltypes.Schema{{Name: "k", Type: sqltypes.Int}}, -1)
	one.Insert(sqltypes.Row{sqltypes.NewInt(7)})
	rt := NewStoreRuntime(cat, storage.NewResultStore())
	cache := NewBuildCache([]string{"big"}, nil)
	n := planSQL(t, rt, "SELECT one.k, big.k FROM one JOIN big ON one.k = big.k")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, n, rt.WithBuildCache(cache), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if cache.Len() != 0 {
		t.Fatalf("canceled build left %d cache entries", cache.Len())
	}
	rows, err := Run(n, rt.WithBuildCache(cache), nil)
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, rows, "7, 7")
	if cache.Len() != 1 {
		t.Errorf("completed build left %d cache entries, want 1", cache.Len())
	}
}

// TestHashJoinProbeAllocsOnlyOutputRow guards the probe path: with a
// single-column key, key evaluation and the match lookup allocate
// nothing, and output rows are cut from a slab, so the amortized cost
// of an emitted row is well below one allocation.
func TestHashJoinProbeAllocsOnlyOutputRow(t *testing.T) {
	const n, perRun = 2000, 500
	var probe, build []sqltypes.Row
	for k := int64(0); k < n; k++ {
		probe = append(probe, sqltypes.Row{sqltypes.NewInt(k), sqltypes.NewFloat(float64(k))})
		build = append(build, sqltypes.Row{sqltypes.NewInt(k), sqltypes.NewString("v")})
	}
	env := &expr.Env{Cols: []expr.Binding{{Name: "k", Index: 0, Type: sqltypes.Int}}}
	key, err := expr.Compile(&ast.ColumnRef{Name: "k"}, env)
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range []ast.JoinType{ast.InnerJoin, ast.LeftJoin} {
		op := &hashJoinOp{
			typ: typ, left: RowsOperator(probe), right: RowsOperator(build),
			leftKeys: []*expr.Compiled{key}, rightKeys: []*expr.Compiled{key},
			leftWidth: 2, rightWidth: 2, stats: &Stats{},
		}
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		// AllocsPerRun makes one warm-up call and 2 measured calls:
		// 3*perRun <= n rows.
		allocs := testing.AllocsPerRun(2, func() {
			for i := 0; i < perRun; i++ {
				if r, err := op.Next(); err != nil || len(r) != 4 {
					t.Fatalf("Next = %v, %v", r, err)
				}
			}
		}) / perRun
		if allocs > 0.05 {
			t.Errorf("%v probe: %.3f allocations per emitted row, want <= 0.05", typ, allocs)
		}
	}
}

// TestBuildCacheConcurrentJoins runs the same cached join from several
// goroutines at once, as the parallel step scheduler's workers do:
// every run returns the uncached rows and the cache ends with one
// build. Run it under -race.
func TestBuildCacheConcurrentJoins(t *testing.T) {
	rt := testRuntime(t)
	cache := NewBuildCache([]string{"edges"}, nil)
	n := planSQL(t, rt, "SELECT v.node, e.src FROM vertexStatus v JOIN edges e ON v.node = e.dst ORDER BY 1, 2")
	want := rowStrings(runSQL(t, rt, "SELECT v.node, e.src FROM vertexStatus v JOIN edges e ON v.node = e.dst ORDER BY 1, 2"))
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	got := make([][]sqltypes.Row, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w], errs[w] = Run(n, rt.WithBuildCache(cache), &Stats{})
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if g := strings.Join(rowStrings(got[w]), "; "); g != strings.Join(want, "; ") {
			t.Errorf("worker %d rows %s, want %s", w, g, strings.Join(want, "; "))
		}
	}
	if cache.Len() != 1 {
		t.Errorf("cache holds %d builds, want 1", cache.Len())
	}
}

package exec

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"dbspinner/internal/ast"
	"dbspinner/internal/catalog"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// ownershipRT loads the tables of the row-ownership tests, with column
// names unique across tables so any join of them can be aliased:
// a(ak, ax, an) 200 rows over 80 keys, some NULL; b(bk, bw) 120 rows;
// c(ck, cz) 60 rows; d(dk) 1..3; kt(kk) 0..99.
func ownershipRT(t testing.TB) *StoreRuntime {
	t.Helper()
	cat := catalog.New(2)
	create := func(name string, schema sqltypes.Schema, n int, row func(i int) sqltypes.Row) {
		tb, err := cat.Create(name, schema, -1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			tb.Insert(row(i))
		}
	}
	col := func(name string, typ sqltypes.Type) sqltypes.Column { return sqltypes.Column{Name: name, Type: typ} }
	create("a", sqltypes.Schema{col("ak", sqltypes.Int), col("ax", sqltypes.Float), col("an", sqltypes.String)}, 200,
		func(i int) sqltypes.Row {
			k := sqltypes.NewInt(int64(i % 80))
			if i%37 == 0 {
				k = sqltypes.NullValue
			}
			return sqltypes.Row{k, sqltypes.NewFloat(float64(i) / 2), sqltypes.NewString(fmt.Sprintf("s%03d", i))}
		})
	create("b", sqltypes.Schema{col("bk", sqltypes.Int), col("bw", sqltypes.Float)}, 120,
		func(i int) sqltypes.Row {
			return sqltypes.Row{sqltypes.NewInt(int64(i % 100)), sqltypes.NewFloat(float64(i) * 0.1)}
		})
	create("c", sqltypes.Schema{col("ck", sqltypes.Int), col("cz", sqltypes.Float)}, 60,
		func(i int) sqltypes.Row {
			return sqltypes.Row{sqltypes.NewInt(int64(i * 2 % 90)), sqltypes.NewFloat(float64(i))}
		})
	create("d", sqltypes.Schema{col("dk", sqltypes.Int)}, 3,
		func(i int) sqltypes.Row { return sqltypes.Row{sqltypes.NewInt(int64(i + 1))} })
	create("kt", sqltypes.Schema{col("kk", sqltypes.Int)}, 100,
		func(i int) sqltypes.Row { return sqltypes.Row{sqltypes.NewInt(int64(i))} })
	return NewStoreRuntime(cat, storage.NewResultStore())
}

// firstNode returns the first node of the plan, in pre-order, that
// pick accepts.
func firstNode(t *testing.T, n plan.Node, pick func(plan.Node) bool) plan.Node {
	t.Helper()
	var walk func(plan.Node) plan.Node
	walk = func(n plan.Node) plan.Node {
		if pick(n) {
			return n
		}
		for _, c := range n.Children() {
			if f := walk(c); f != nil {
				return f
			}
		}
		return nil
	}
	f := walk(n)
	if f == nil {
		t.Fatal("no matching node in plan")
	}
	return f
}

func isJoin(n plan.Node) bool    { _, ok := n.(*plan.Join); return ok }
func isProject(n plan.Node) bool { _, ok := n.(*plan.Project); return ok }
func isScan(n plan.Node) bool    { _, ok := n.(*plan.Scan); return ok }

// rowBits renders rows bit-exactly: type tag, integer, float bits and
// string of every value.
func rowBits(rows []sqltypes.Row) string {
	var b strings.Builder
	for _, r := range rows {
		for _, v := range r {
			fmt.Fprintf(&b, "%d/%d/%x/%q ", v.T, v.I, math.Float64bits(v.F), v.S)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// overlappingRows returns the indexes of two rows whose cells share
// memory, or ok false when every row owns its cells.
func overlappingRows(rows []sqltypes.Row) (i, j int, ok bool) {
	type span struct {
		lo, hi uintptr
		row    int
	}
	var spans []span
	for i, r := range rows {
		if len(r) == 0 {
			continue
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(r)))
		spans = append(spans, span{lo, lo + uintptr(len(r))*unsafe.Sizeof(sqltypes.Value{}), i})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for k := 1; k < len(spans); k++ {
		if spans[k].lo < spans[k-1].hi {
			return spans[k-1].row, spans[k].row, true
		}
	}
	return 0, 0, false
}

// withOwnedRows runs f with the borrowed-row mode turned off through
// the test seam, so every operator emits owned rows.
func withOwnedRows(f func()) {
	borrowRows = false
	defer func() { borrowRows = true }()
	f()
}

// TestRowOwnershipMatrix puts every consumer that keeps rows over
// producers that emit borrowed rows when their consumer allows it:
// hash joins (a chain whose probe is another join, full outer with a
// residual, right outer building another join), a nested loop and a project over a join. The
// consumers are Materialize, DISTINCT, ORDER BY, TopN, LIMIT,
// UNION -> DISTINCT, a hash join's build side with and without a build
// cache, and a nested loop's right side. Every cell must return rows
// that own their cells and are bit-identical to the run with borrowing
// off.
func TestRowOwnershipMatrix(t *testing.T) {
	rt := ownershipRT(t)
	cached := rt.WithBuildCache(NewBuildCache([]string{"a", "b", "c", "d", "kt"}, nil))
	scanOf := func(table string) plan.Node {
		return firstNode(t, planSQL(t, rt, "SELECT * FROM "+table), isScan)
	}
	chain := firstNode(t, planSQL(t, rt, "SELECT * FROM a JOIN b ON a.ak = b.bk LEFT JOIN c ON c.ck = b.bk"), isJoin).(*plan.Join)
	producers := []struct {
		name string
		node plan.Node
	}{
		{"join chain", chain},
		{"full outer join", firstNode(t, planSQL(t, rt, "SELECT * FROM a FULL JOIN c ON a.ak = c.ck AND a.ax > c.cz"), isJoin)},
		// The planner rewrites RIGHT JOIN; this one builds the a-b join.
		{"right outer join", &plan.Join{Type: ast.RightJoin, Left: chain.Left, Right: chain.Right, On: chain.On}},
		{"nested loop", firstNode(t, planSQL(t, rt, "SELECT * FROM c JOIN d ON c.ck < d.dk * 30"), isJoin)},
		{"project", firstNode(t, planSQL(t, rt, "SELECT a.ak, b.bw * 2 AS y2, a.an AS s FROM a JOIN b ON a.ak = b.bk"), isProject)},
	}
	buildSide := func(p plan.Node) plan.Node {
		return &plan.Join{Type: ast.InnerJoin, Left: scanOf("kt"), Right: &plan.Alias{Input: p, Name: "p"},
			On: &ast.BinaryExpr{Op: "=", L: &ast.ColumnRef{Table: "kt", Name: "kk"}, R: &ast.ColumnRef{Table: "p", Name: p.Columns()[0].Name}}}
	}
	byFirst := []plan.SortKey{{Col: 0}, {Col: 1, Desc: true}}
	consumers := []struct {
		name string
		rt   *StoreRuntime
		wrap func(plan.Node) plan.Node // nil: Materialize
	}{
		{"materialize", rt, nil},
		{"distinct", rt, func(p plan.Node) plan.Node { return &plan.Distinct{Input: p} }},
		{"order by", rt, func(p plan.Node) plan.Node { return &plan.Sort{Input: p, Keys: byFirst} }},
		{"topn", rt, func(p plan.Node) plan.Node { return &plan.TopN{Input: p, Keys: byFirst, N: 100, Offset: 3} }},
		{"limit", rt, func(p plan.Node) plan.Node { return &plan.Limit{Input: p, N: 100, Offset: 3} }},
		{"union distinct", rt, func(p plan.Node) plan.Node { return &plan.Distinct{Input: &plan.Union{Left: p, Right: p}} }},
		{"hash build", rt, buildSide},
		{"hash build cached", cached, buildSide},
		{"nested loop right", rt, func(p plan.Node) plan.Node {
			return &plan.Join{Type: ast.CrossJoin, Left: scanOf("d"), Right: p}
		}},
	}
	for _, p := range producers {
		var n int
		withOwnedRows(func() { n = len(runPlan(t, p.node, rt)) })
		if n <= slabRows {
			t.Fatalf("%s: %d rows, want more than one slab (%d)", p.name, n, slabRows)
		}
		for _, c := range consumers {
			name := p.name + " under " + c.name
			run := func() []sqltypes.Row {
				if c.wrap == nil {
					tb, err := Materialize(p.node, c.rt, nil, "m", 2)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					var rows []sqltypes.Row
					for _, part := range tb.Parts {
						rows = append(rows, part...)
					}
					return rows
				}
				return runPlan(t, c.wrap(p.node), c.rt)
			}
			var want []sqltypes.Row
			withOwnedRows(func() { want = run() })
			got := run()
			if len(got) == 0 {
				t.Fatalf("%s: no rows", name)
			}
			if i, j, ok := overlappingRows(got); ok {
				t.Errorf("%s: rows %d and %d share cells", name, i, j)
			}
			if rowBits(got) != rowBits(want) {
				t.Errorf("%s: rows differ from the owned-rows run:\n got %v\nwant %v", name, rowStrings(got), rowStrings(want))
			}
		}
	}
}

func runPlan(t *testing.T, n plan.Node, rt *StoreRuntime) []sqltypes.Row {
	t.Helper()
	rows, err := Run(n, rt, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return rows
}

// TestBorrowedRowsParity runs queries whose operators hand borrowed
// rows to aggregates, join probes, nested-loop left inputs and
// projects — through filters, unions and limits — and compares
// them bit for bit with borrowing off.
func TestBorrowedRowsParity(t *testing.T) {
	rt := ownershipRT(t)
	queries := []string{
		"SELECT a.ak, SUM(b.bw * c.cz), COUNT(*) FROM a JOIN b ON a.ak = b.bk LEFT JOIN c ON c.ck = b.bk GROUP BY a.ak",
		"SELECT c.ck, MIN(a.an), MAX(a.ax) FROM a FULL JOIN c ON a.ak = c.ck AND a.ax > c.cz GROUP BY c.ck",
		"SELECT p.ak, COUNT(*) FROM (SELECT a.ak, b.bw + 1 AS y FROM a JOIN b ON a.ak = b.bk WHERE b.bw > 2) AS p JOIN c ON c.ck = p.ak GROUP BY p.ak",
		"SELECT d.dk, SUM(c.cz) FROM c JOIN d ON c.ck < d.dk * 30 GROUP BY d.dk",
		"SELECT x.k, COUNT(*) FROM (SELECT ak AS k FROM a UNION ALL SELECT bk FROM b) AS x JOIN kt ON kt.kk = x.k GROUP BY x.k",
		"SELECT COUNT(*), SUM(q.ax) FROM (SELECT a.ax FROM a JOIN b ON a.ak = b.bk LIMIT 50 OFFSET 7) AS q",
		"SELECT kt.kk, s.an FROM kt JOIN (SELECT ak, an FROM a JOIN c ON a.ak = c.ck) AS s ON s.ak = kt.kk ORDER BY 1, 2",
		"SELECT DISTINCT c.ck, d.dk FROM c, d WHERE c.cz > d.dk",
	}
	for _, q := range queries {
		n := planSQL(t, rt, q)
		var want []sqltypes.Row
		withOwnedRows(func() { want = runPlan(t, n, rt) })
		got := runPlan(t, n, rt)
		if len(got) == 0 {
			t.Fatalf("%s: no rows", q)
		}
		if rowBits(got) != rowBits(want) {
			t.Errorf("%s: rows differ from the owned-rows run:\n got %v\nwant %v", q, rowStrings(got), rowStrings(want))
		}
	}
}

// joinAggregateRT loads a probe table p(pk, pg) of n rows over 64 keys
// and 16 groups, and build tables b(bk, bv) and c(ck, cw) of 64 rows,
// one per key: each p row joins one b row and one c row.
func joinAggregateRT(t testing.TB, n int) *StoreRuntime {
	t.Helper()
	cat := catalog.New(2)
	create := func(name string, schema sqltypes.Schema, rows int, row func(i int) sqltypes.Row) {
		tb, err := cat.Create(name, schema, -1)
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]sqltypes.Row, rows)
		for i := range batch {
			batch[i] = row(i)
		}
		tb.InsertBatch(batch)
	}
	schema := func(k, v string, vt sqltypes.Type) sqltypes.Schema {
		return sqltypes.Schema{{Name: k, Type: sqltypes.Int}, {Name: v, Type: vt}}
	}
	create("p", schema("pk", "pg", sqltypes.Int), n,
		func(i int) sqltypes.Row {
			return sqltypes.Row{sqltypes.NewInt(int64(i % 64)), sqltypes.NewInt(int64(i % 16))}
		})
	create("b", schema("bk", "bv", sqltypes.Float), 64,
		func(i int) sqltypes.Row {
			return sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewFloat(float64(i) / 4)}
		})
	create("c", schema("ck", "cw", sqltypes.Float), 64,
		func(i int) sqltypes.Row {
			return sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewFloat(float64(64 - i))}
		})
	return NewStoreRuntime(cat, storage.NewResultStore())
}

// joinAggregateSQL is two hash joins feeding a grouped SUM, the shape
// of a PageRank iteration.
const joinAggregateSQL = "SELECT p.pg, SUM(b.bv * c.cw) FROM p JOIN b ON p.pk = b.bk JOIN c ON c.ck = b.bk GROUP BY p.pg"

// TestAggregateOverJoinsAllocsPerGroup guards the borrowed path: the
// joins under an aggregate write every joined row into a reused
// buffer, so with the groups fixed, more joined rows cost no more
// allocations.
func TestAggregateOverJoinsAllocsPerGroup(t *testing.T) {
	measure := func(n int) (allocs float64, joined int64) {
		rt := joinAggregateRT(t, n)
		node := planSQL(t, rt, joinAggregateSQL)
		var stats Stats
		allocs = testing.AllocsPerRun(3, func() {
			stats = Stats{}
			if rows, err := Run(node, rt, &stats); err != nil || len(rows) != 16 {
				t.Fatalf("Run: %d rows, err %v; want 16 groups", len(rows), err)
			}
		})
		return allocs, stats.RowsJoined
	}
	shortAllocs, shortJoined := measure(2000)
	longAllocs, longJoined := measure(16000)
	if perRow := (longAllocs - shortAllocs) / float64(longJoined-shortJoined); perRow >= 0.01 {
		t.Errorf("%.4f allocations per extra joined row (%v for %d joined rows, %v for %d), want < 0.01",
			perRow, shortAllocs, shortJoined, longAllocs, longJoined)
	}
}

// BenchmarkJoinAggregate times two hash joins feeding a grouped SUM
// over 16,000 probe rows, the per-iteration shape of PageRank.
func BenchmarkJoinAggregate(b *testing.B) {
	rt := joinAggregateRT(b, 16000)
	node := planSQL(b, rt, joinAggregateSQL)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := Run(node, rt, nil)
		if err != nil || len(rows) != 16 {
			b.Fatalf("Run: %d rows, err %v", len(rows), err)
		}
	}
}

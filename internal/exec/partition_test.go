package exec

import (
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/parser"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
)

// joinNode builds the logical join node of the given query's FROM
// clause for the partition-helper tests.
func joinNode(t *testing.T, rt *StoreRuntime, sql string) *plan.Join {
	t.Helper()
	return firstNode(t, planSQL(t, rt, sql), isJoin).(*plan.Join)
}

func TestJoinKeysExtraction(t *testing.T) {
	rt := testRuntime(t)
	j := joinNode(t, rt, `SELECT * FROM edges e JOIN vertexStatus v ON e.dst = v.node AND e.weight > 0.5`)
	lk, rk, residual, err := JoinKeys(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(lk) != 1 || len(rk) != 1 {
		t.Errorf("keys = %d/%d", len(lk), len(rk))
	}
	if residual == nil {
		t.Error("non-equi conjunct should become residual")
	}
	// Reversed operand order also extracts.
	j = joinNode(t, rt, `SELECT * FROM edges e JOIN vertexStatus v ON v.node = e.dst`)
	lk, rk, residual, err = JoinKeys(j)
	if err != nil || len(lk) != 1 || residual != nil {
		t.Errorf("reversed equi: %d keys, residual %v, err %v", len(lk), residual, err)
	}
	_ = rk
}

func TestKeyFor(t *testing.T) {
	rt := testRuntime(t)
	j := joinNode(t, rt, `SELECT * FROM edges e JOIN vertexStatus v ON e.dst = v.node`)
	lk, _, _, err := JoinKeys(j)
	if err != nil {
		t.Fatal(err)
	}
	row := sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewInt(7), sqltypes.NewFloat(1)}
	k1, null, err := KeyFor(lk, row)
	if err != nil || null {
		t.Fatalf("KeyFor: %v null=%v", err, null)
	}
	row2 := sqltypes.Row{sqltypes.NewInt(9), sqltypes.NewFloat(7), sqltypes.NewFloat(2)}
	k2, _, _ := KeyFor(lk, row2)
	if k1 != k2 {
		t.Error("7 and 7.0 keys should match")
	}
	nullRow := sqltypes.Row{sqltypes.NewInt(1), sqltypes.NullValue, sqltypes.NewFloat(1)}
	if _, null, _ := KeyFor(lk, nullRow); !null {
		t.Error("NULL key not reported")
	}
}

func TestHashJoinPartitionSemantics(t *testing.T) {
	rt := testRuntime(t)
	j := joinNode(t, rt, `SELECT * FROM edges e LEFT JOIN vertexStatus v ON e.dst = v.node`)
	lk, rk, residual, err := JoinKeys(j)
	if err != nil {
		t.Fatal(err)
	}
	left := []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewInt(2), sqltypes.NewFloat(1)},
		{sqltypes.NewInt(1), sqltypes.NewInt(99), sqltypes.NewFloat(1)}, // no match
	}
	right := []sqltypes.Row{
		{sqltypes.NewInt(2), sqltypes.NewInt(1)},
	}
	out, err := HashJoinPartition(ast.LeftJoin, left, right, lk, rk, residual, 3, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("out = %d rows", len(out))
	}
	matched, unmatched := 0, 0
	for _, r := range out {
		if len(r) != 5 {
			t.Fatalf("row width %d", len(r))
		}
		if r[3].IsNull() {
			unmatched++
		} else {
			matched++
		}
	}
	if matched != 1 || unmatched != 1 {
		t.Errorf("matched=%d unmatched=%d", matched, unmatched)
	}
}

func TestNestedLoopPartition(t *testing.T) {
	a := []sqltypes.Row{{sqltypes.NewInt(1)}, {sqltypes.NewInt(2)}}
	b := []sqltypes.Row{{sqltypes.NewInt(10)}, {sqltypes.NewInt(20)}}
	out, err := NestedLoopPartition(a, b, nil, nil)
	if err != nil || len(out) != 4 {
		t.Fatalf("cross join: %d rows, %v", len(out), err)
	}
}

func TestAggregatePartitionEmptyScalar(t *testing.T) {
	rt := testRuntime(t)
	stmt, _ := parser.Parse("SELECT COUNT(*) FROM edges")
	node, err := plan.NewBuilder(rt).Build(stmt.(*ast.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	agg := node.(*plan.Project).Input.(*plan.Aggregate)
	// With emptyScalar: one zero row even with no input.
	rows, err := AggregatePartition(agg, nil, true, nil)
	if err != nil || len(rows) != 1 || rows[0][0].Int() != 0 {
		t.Errorf("emptyScalar: %v, %v", rows, err)
	}
	// Without: nothing (other fragments produce the row).
	rows, err = AggregatePartition(agg, nil, false, nil)
	if err != nil || len(rows) != 0 {
		t.Errorf("non-emptyScalar: %v, %v", rows, err)
	}
}

func TestGroupKeyExprs(t *testing.T) {
	rt := testRuntime(t)
	stmt, _ := parser.Parse("SELECT src, COUNT(*) FROM edges GROUP BY src")
	node, err := plan.NewBuilder(rt).Build(stmt.(*ast.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	agg := node.(*plan.Project).Input.(*plan.Aggregate)
	keys, err := GroupKeyExprs(agg)
	if err != nil || len(keys) != 1 {
		t.Fatalf("keys = %d, %v", len(keys), err)
	}
	v, err := keys[0].Eval(sqltypes.Row{sqltypes.NewInt(5), sqltypes.NewInt(6), sqltypes.NewFloat(1)})
	if err != nil || v.Int() != 5 {
		t.Errorf("key eval = %v, %v", v, err)
	}
}

func TestRowsOperator(t *testing.T) {
	op := RowsOperator([]sqltypes.Row{{sqltypes.NewInt(1)}, {sqltypes.NewInt(2)}})
	rows, err := Drain(op)
	if err != nil || len(rows) != 2 {
		t.Fatalf("%v, %v", rows, err)
	}
	// Reopenable.
	rows, err = Drain(op)
	if err != nil || len(rows) != 2 {
		t.Fatalf("reopen: %v, %v", rows, err)
	}
}

package exec

import (
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/expr"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
)

// TestAggregateAllocsPerGroup guards hash aggregation: group values are
// evaluated into a reused buffer and copied only when a group is
// created, so allocations grow with the number of groups, not the
// number of input rows.
func TestAggregateAllocsPerGroup(t *testing.T) {
	env := &expr.Env{Cols: []expr.Binding{
		{Name: "g", Index: 0, Type: sqltypes.Int},
		{Name: "v", Index: 1, Type: sqltypes.Float},
	}}
	compile := func(name string) *expr.Compiled {
		c, err := expr.Compile(&ast.ColumnRef{Name: name}, env)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	g, v := compile("g"), compile("v")
	allocs := func(rows, groups int) float64 {
		in := make([]sqltypes.Row, rows)
		for i := range in {
			in[i] = sqltypes.Row{sqltypes.NewInt(int64(i % groups)), sqltypes.NewFloat(float64(i))}
		}
		op := &aggOp{
			node:  &plan.Aggregate{Aggs: []plan.AggSpec{{Name: "SUM"}, {Name: "COUNT", Star: true}}},
			stats: &Stats{}, input: RowsOperator(in),
			groupEx: []*expr.Compiled{g}, argEx: []*expr.Compiled{v, nil},
		}
		return testing.AllocsPerRun(5, func() {
			if err := op.Open(); err != nil || len(op.out) != groups {
				t.Fatalf("Open: %d groups, err %v; want %d groups", len(op.out), err, groups)
			}
		})
	}
	const fewGroups, manyGroups = 16, 1024
	short, long := allocs(1000, fewGroups), allocs(16000, fewGroups)
	if perRow := (long - short) / 15000; perRow > 0.001 {
		t.Errorf("%.4f allocations per extra input row (%v for 1000 rows, %v for 16000), want none", perRow, short, long)
	}
	if perGroup := (allocs(16000, manyGroups) - long) / (manyGroups - fewGroups); perGroup > 8 {
		t.Errorf("%.1f allocations per extra group, want <= 8", perGroup)
	}
}

// Wide keys: keys over more than three columns use a byte encoding in
// which a NUL inside a string is escaped, so rows that differ only in
// where a NUL falls stay apart in grouping, DISTINCT and hash joins, in
// volcano and MPP execution alike.
package dbspinner_test

import (
	"testing"

	"dbspinner"
	"dbspinner/internal/sqltypes"
)

func TestWideKeysKeepNULStringsApart(t *testing.T) {
	rows := []dbspinner.Row{
		{sqltypes.NewString("a"), sqltypes.NewString("b\x00sc"), sqltypes.NewInt(1), sqltypes.NewInt(2)},
		{sqltypes.NewString("a\x00sb"), sqltypes.NewString("c"), sqltypes.NewInt(1), sqltypes.NewInt(2)},
	}
	for _, parallel := range []bool{false, true} {
		for _, parts := range []int{1, 2} {
			e := dbspinner.New(dbspinner.Config{Partitions: parts, Parallel: parallel})
			if _, err := e.Exec("CREATE TABLE t (a varchar, b varchar, c int, d int)"); err != nil {
				t.Fatal(err)
			}
			if err := e.BulkInsert("t", rows); err != nil {
				t.Fatal(err)
			}
			for _, sql := range []string{
				"SELECT a, b, c, d, COUNT(*) FROM t GROUP BY a, b, c, d",
				"SELECT DISTINCT a, b, c, d FROM t",
				"SELECT x.a, y.b FROM t x JOIN t y ON x.a = y.a AND x.b = y.b AND x.c = y.c AND x.d = y.d",
			} {
				res, err := e.Query(sql)
				if err != nil {
					t.Fatalf("parallel=%v parts=%d: %s: %v", parallel, parts, sql, err)
				}
				if len(res.Rows) != 2 {
					t.Errorf("parallel=%v parts=%d: %s returned %d rows, want 2: %v", parallel, parts, sql, len(res.Rows), res.Rows)
				}
			}
		}
	}
}

// NaN keys: SQRT(-1) and CAST('NaN' AS FLOAT) yield NaNs with
// different bit patterns. Grouping, DISTINCT and hash joins key every
// NaN as one value (sqltypes.Key), in volcano and MPP execution alike,
// so MPP routing must co-locate them too.
package dbspinner_test

import (
	"sort"
	"strings"
	"testing"

	"dbspinner"
)

func TestNaNGroupsAndJoinsAsOneValue(t *testing.T) {
	sortedRows := func(res *dbspinner.Result) string {
		out := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			out[i] = r.String()
		}
		sort.Strings(out)
		return strings.Join(out, "; ")
	}
	for _, parallel := range []bool{false, true} {
		for _, parts := range []int{1, 2, 4} {
			e := dbspinner.New(dbspinner.Config{Partitions: parts, Parallel: parallel})
			for _, sql := range []string{
				"CREATE TABLE t (k float, x int)",
				"INSERT INTO t VALUES (CAST('NaN' AS FLOAT), 1), (SQRT(-1), 2), (1.0, 4), (1, 8)",
			} {
				if _, err := e.Exec(sql); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
			}
			for _, c := range []struct{ sql, want string }{
				{"SELECT k, COUNT(*), SUM(x) FROM t GROUP BY k", "1, 2, 12; NaN, 2, 3"},
				{"SELECT DISTINCT k FROM t", "1; NaN"},
				{"SELECT a.x, b.x FROM t a JOIN t b ON a.k = b.k",
					"1, 1; 1, 2; 2, 1; 2, 2; 4, 4; 4, 8; 8, 4; 8, 8"},
			} {
				res, err := e.Query(c.sql)
				if err != nil {
					t.Fatalf("parallel=%v parts=%d: %s: %v", parallel, parts, c.sql, err)
				}
				if got := sortedRows(res); got != c.want {
					t.Errorf("parallel=%v parts=%d: %s = %s, want %s", parallel, parts, c.sql, got, c.want)
				}
			}
		}
	}
}

package dbspinner_test

import (
	"strings"
	"testing"

	"dbspinner"
	"dbspinner/internal/bench"
)

// TestBuildCacheNotReusedAcrossStatements runs the same iterative query
// twice with an INSERT INTO edges between them. Hash-join builds over
// edges are cached only within one query's run, so the second query
// must see the new edge: its rows differ from the first query's and
// equal those of a fresh engine that had the edge from the start.
func TestBuildCacheNotReusedAcrossStatements(t *testing.T) {
	const insert = "INSERT INTO edges VALUES (2, 1, 1.0)"
	sql := bench.PRQuery(10)
	e := newVerdictEngine(t, dbspinner.Config{})
	before := queryText(t, e, sql)
	if _, err := e.Exec(insert); err != nil {
		t.Fatal(err)
	}
	after := queryText(t, e, sql)
	if after == before {
		t.Fatalf("the INSERT did not change the second result:\n%s", after)
	}
	fresh := newVerdictEngine(t, dbspinner.Config{})
	if _, err := fresh.Exec(insert); err != nil {
		t.Fatal(err)
	}
	if want := queryText(t, fresh, sql); after != want {
		t.Errorf("second query diverges from a fresh engine with the edge:\n got: %s\nwant: %s", after, want)
	}
}

func queryText(t *testing.T, e *dbspinner.Engine, sql string) string {
	t.Helper()
	res, err := e.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range res.Rows {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

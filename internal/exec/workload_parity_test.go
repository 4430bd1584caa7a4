package exec_test

import (
	"testing"

	"dbspinner"
	"dbspinner/internal/bench"
	"dbspinner/internal/exec"
	"dbspinner/internal/workload"
)

// TestBorrowedRowsWorkloadParity runs the iterative workloads — PR,
// PR-VS, SSSP and SSSP-VS, whose every iteration is a join-join-
// aggregate — with borrowed rows on and off, on the volcano executor
// with full and delta iteration and on the MPP machine, and requires
// bit-identical rows and equal update counts. Every run must update
// rows, so a workload that does nothing cannot pass.
func TestBorrowedRowsWorkloadParity(t *testing.T) {
	g := workload.Uniform(300, 1500, workload.WeightOutDegree, 7)
	queries := map[string]string{
		"pr":      bench.PRQuery(8),
		"pr-vs":   bench.PRVSQuery(8),
		"sssp":    bench.SSSPQuery(1, 8),
		"sssp-vs": bench.SSSPVSQuery(1, 8),
	}
	configs := map[string]dbspinner.Config{
		"volcano": {Partitions: 1},
		"delta":   {Partitions: 1, DeltaIteration: true},
		"mpp":     {Partitions: 2, Parallel: true},
	}
	for cname, cfg := range configs {
		e, err := bench.NewEngine(g, bench.Config{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for qname, q := range queries {
			run := func() (string, int64) {
				before := e.Stats().UpdatedRows
				res, err := e.Query(q)
				if err != nil {
					t.Fatalf("%s/%s: %v", cname, qname, err)
				}
				return exec.RowBits(res.Rows), e.Stats().UpdatedRows - before
			}
			var want string
			var wantUpdated int64
			exec.WithOwnedRows(func() { want, wantUpdated = run() })
			got, updated := run()
			if wantUpdated == 0 {
				t.Errorf("%s/%s: no rows updated; the workload is degenerate", cname, qname)
			}
			if got != want || updated != wantUpdated {
				t.Errorf("%s/%s: borrowed rows diverge from owned rows (%d vs %d rows updated)", cname, qname, updated, wantUpdated)
			}
		}
	}
}

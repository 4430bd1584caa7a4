// Query-lifecycle tests: cooperative cancellation, per-query
// deadlines, goroutine hygiene, and the guarantee that a context that
// never fires (and iteration tracing itself) leaves results
// byte-identical. The matrix crosses SSSP and PageRank with
// single-partition vs MPP execution and the sequential vs scheduled
// step loop, since each combination exercises a different set of
// checkpoint sites (step boundaries, scheduler regions, partition
// batches, scan strides).
package dbspinner_test

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dbspinner"
	"dbspinner/internal/bench"
	"dbspinner/internal/workload"
)

// lifecycleGraph is big enough that a 100000-iteration query runs for
// many seconds if nothing stops it, so a ~20ms cancel always lands
// mid-flight.
func lifecycleGraph(t testing.TB) *workload.Graph {
	t.Helper()
	return workload.PreferentialAttachment(500, 4, workload.WeightUnit, 42)
}

func lifecycleEngine(t testing.TB, parts int, cfg dbspinner.Config) *dbspinner.Engine {
	t.Helper()
	cfg.Partitions = parts
	e, err := bench.NewEngine(lifecycleGraph(t), bench.Config{Partitions: parts}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// settleGoroutines retries until the goroutine count returns to within
// slack of before, tolerating runtime bookkeeping goroutines; workers
// from a canceled region need a moment to observe the context.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after cancellation", before, now)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

type lifecycleCase struct {
	name  string
	sql   string
	parts int
	cfg   dbspinner.Config
}

func lifecycleCases(iterations int) []lifecycleCase {
	queries := []struct {
		name string
		sql  string
	}{
		{"SSSP", bench.SSSPQuery(1, iterations)},
		{"PR", bench.PRQuery(iterations)},
	}
	var cases []lifecycleCase
	for _, q := range queries {
		for _, parts := range []int{1, 4} {
			for _, sched := range []int{0, 4} {
				cfg := dbspinner.Config{ParallelSteps: sched}
				if parts > 1 {
					cfg.Parallel = true
				}
				cases = append(cases, lifecycleCase{
					name:  fmt.Sprintf("%s/parts=%d/sched=%d", q.name, parts, sched),
					sql:   q.sql,
					parts: parts,
					cfg:   cfg,
				})
			}
		}
	}
	return cases
}

// TestCancelMidIteration cancels a deliberately unbounded query ~20ms
// in and requires a prompt, structured ErrQueryCanceled with no
// goroutines left behind.
func TestCancelMidIteration(t *testing.T) {
	for _, tc := range lifecycleCases(100000) {
		t.Run(tc.name, func(t *testing.T) {
			e := lifecycleEngine(t, tc.parts, tc.cfg)
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(20 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err := e.QueryContext(ctx, tc.sql)
			elapsed := time.Since(start)
			if !errors.Is(err, dbspinner.ErrQueryCanceled) {
				t.Fatalf("err = %v, want ErrQueryCanceled", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v does not unwrap to context.Canceled", err)
			}
			var le *dbspinner.QueryLifecycleError
			if !errors.As(err, &le) {
				t.Fatalf("err = %v is not a QueryLifecycleError", err)
			}
			if !strings.Contains(err.Error(), "iteration") {
				t.Fatalf("error %q does not name the iteration reached", err)
			}
			// Bounded kill latency: a checkpoint fires within an
			// iteration boundary, partition batch, or scan stride —
			// never after the full 100000-iteration run.
			if elapsed > 10*time.Second {
				t.Fatalf("cancellation took %v", elapsed)
			}
			settleGoroutines(t, before)
		})
	}
}

// TestQueryTimeout arms the engine-level deadline knob and requires a
// structured ErrQueryTimeout.
func TestQueryTimeout(t *testing.T) {
	for _, tc := range lifecycleCases(100000) {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.QueryTimeout = 25 * time.Millisecond
			e := lifecycleEngine(t, tc.parts, cfg)
			before := runtime.NumGoroutine()
			start := time.Now()
			_, err := e.Query(tc.sql)
			elapsed := time.Since(start)
			if !errors.Is(err, dbspinner.ErrQueryTimeout) {
				t.Fatalf("err = %v, want ErrQueryTimeout", err)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v does not unwrap to context.DeadlineExceeded", err)
			}
			var le *dbspinner.QueryLifecycleError
			if !errors.As(err, &le) {
				t.Fatalf("err = %v is not a QueryLifecycleError", err)
			}
			if elapsed > 10*time.Second {
				t.Fatalf("deadline enforcement took %v", elapsed)
			}
			settleGoroutines(t, before)
		})
	}
}

// TestCallerDeadlineWinsOverConfig: an explicit context deadline is
// respected even when Config.QueryTimeout is longer — the knob is a
// default, not an override.
func TestCallerDeadlineWinsOverConfig(t *testing.T) {
	e := lifecycleEngine(t, 4, dbspinner.Config{Parallel: true, QueryTimeout: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	_, err := e.QueryContext(ctx, bench.SSSPQuery(1, 100000))
	if !errors.Is(err, dbspinner.ErrQueryTimeout) {
		t.Fatalf("err = %v, want ErrQueryTimeout from caller deadline", err)
	}
}

// TestPreCanceledContext: a context that is already dead fails fast,
// before any execution work, for both queries and statements.
func TestPreCanceledContext(t *testing.T) {
	e := lifecycleEngine(t, 4, dbspinner.Config{Parallel: true})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := e.QueryContext(ctx, bench.SSSPQuery(1, 100000)); !errors.Is(err, dbspinner.ErrQueryCanceled) {
		t.Fatalf("QueryContext err = %v, want ErrQueryCanceled", err)
	}
	if _, err := e.ExecContext(ctx, "INSERT INTO edges VALUES (1, 2, 1.0)"); !errors.Is(err, dbspinner.ErrQueryCanceled) {
		t.Fatalf("ExecContext err = %v, want ErrQueryCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("pre-canceled context took %v to fail", elapsed)
	}
}

// pollGate is a query context that counts the engine's cancellation
// polls, the Err calls that reach it from step checkpoints, partition
// batches and scan strides, and cancels itself at the limit-th poll;
// limit 0 never cancels.
type pollGate struct {
	context.Context
	cancel context.CancelFunc
	polls  atomic.Int64
	limit  int64
}

func (g *pollGate) Err() error {
	if n := g.polls.Add(1); g.limit > 0 && n >= g.limit {
		g.cancel()
	}
	return g.Context.Err()
}

func newPollGate(limit int64) *pollGate {
	ctx, cancel := context.WithCancel(context.Background())
	return &pollGate{Context: ctx, cancel: cancel, limit: limit}
}

// afterFirstIteration returns a context that cancels an unbounded
// query just after its first iteration, without reading the clock.
// It counts the polls a fresh engine makes running oneIter, the same
// query stopped after one iteration. The two runs poll alike up to the
// end of that iteration, so the unbounded run's next poll comes after
// it.
func afterFirstIteration(t *testing.T, parts int, cfg dbspinner.Config, oneIter string) (context.Context, context.CancelFunc) {
	t.Helper()
	ref := newPollGate(0)
	defer ref.cancel()
	if _, err := lifecycleEngine(t, parts, cfg).QueryContext(ref, oneIter); err != nil {
		t.Fatalf("one-iteration reference run: %v", err)
	}
	g := newPollGate(ref.polls.Load() + 1)
	return g, g.cancel
}

// requireIterationDone fails unless the cancellation err reports at
// least one completed iteration.
func requireIterationDone(t *testing.T, err error) {
	t.Helper()
	var le *dbspinner.QueryLifecycleError
	if !errors.As(err, &le) || le.Iteration < 1 {
		t.Fatalf("err = %v: want a cancellation after the first iteration", err)
	}
}

// TestStatsSurviveFailure: a canceled statement still publishes the
// work it did — Stats must not be zeroed by the error path.
func TestStatsSurviveFailure(t *testing.T) {
	cfg := dbspinner.Config{Parallel: true}
	ctx, cancel := afterFirstIteration(t, 4, cfg, bench.PRQuery(1))
	defer cancel()
	e := lifecycleEngine(t, 4, cfg)
	_, err := e.QueryContext(ctx, bench.PRQuery(100000))
	if !errors.Is(err, dbspinner.ErrQueryCanceled) {
		t.Fatalf("err = %v, want ErrQueryCanceled", err)
	}
	requireIterationDone(t, err)
	if s := e.Stats(); s.Iterations == 0 {
		t.Fatalf("stats lost on failure: %+v", s)
	}
}

// TestNonFiringContextIsInvisible: running under a cancellable context
// that never fires, with or without tracing, must give byte-identical
// results to the plain path.
func TestNonFiringContextIsInvisible(t *testing.T) {
	for _, q := range []struct {
		name string
		sql  string
	}{
		{"SSSP", bench.SSSPQuery(1, 5)},
		{"PR", bench.PRQuery(5)},
	} {
		t.Run(q.name, func(t *testing.T) {
			base := lifecycleEngine(t, 4, dbspinner.Config{Parallel: true})
			want, err := base.Query(q.sql)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			for _, variant := range []struct {
				name string
				cfg  dbspinner.Config
			}{
				{"context", dbspinner.Config{Parallel: true}},
				{"traced", dbspinner.Config{Parallel: true, TraceIterations: true}},
				{"timeout", dbspinner.Config{Parallel: true, QueryTimeout: time.Hour}},
			} {
				e := lifecycleEngine(t, 4, variant.cfg)
				got, err := e.QueryContext(ctx, q.sql)
				if err != nil {
					t.Fatalf("%s: %v", variant.name, err)
				}
				if fmt.Sprint(resultRows(want)) != fmt.Sprint(resultRows(got)) {
					t.Fatalf("%s: results diverge from plain run", variant.name)
				}
				if variant.cfg.TraceIterations {
					tr := e.Stats().IterationTrace
					if tr == nil || len(tr.Spans) != 5 {
						t.Fatalf("traced run has trace %+v, want 5 spans", tr)
					}
				}
			}
		})
	}
}

// TestCancelLeavesNoAccumulatorState: with incremental aggregate
// maintenance on (the default), a mid-iteration cancel must not leak
// the "Agg#"/"AggSnap#" accumulator slots into the engine's result
// store — the loop epilogue that truncates them never runs on the
// error path, so the run-end cleanup has to. A retried query on the
// same engine would otherwise diff its first iteration against the
// dead query's snapshot and serve stale groups; the retry runs with
// the dynamic cross-check armed and must be byte-identical to a fresh
// engine's answer.
func TestCancelLeavesNoAccumulatorState(t *testing.T) {
	for _, q := range []struct {
		name      string
		unbounded string
		bounded   string
		oneIter   string
	}{
		{"PR", bench.PRQuery(100000), bench.PRQuery(10), bench.PRQuery(1)},
		{"SSSP", bench.SSSPQuery(1, 100000), bench.SSSPQuery(1, 10), bench.SSSPQuery(1, 1)},
	} {
		t.Run(q.name, func(t *testing.T) {
			cfg := dbspinner.Config{CheckIncrementalAgg: true}
			ctx, cancel := afterFirstIteration(t, 1, cfg, q.oneIter)
			defer cancel()
			e := lifecycleEngine(t, 1, cfg)
			_, err := e.QueryContext(ctx, q.unbounded)
			if !errors.Is(err, dbspinner.ErrQueryCanceled) {
				t.Fatalf("err = %v, want ErrQueryCanceled", err)
			}
			requireIterationDone(t, err)
			// The canceled run must have exercised maintenance, or the
			// leak check below is vacuous.
			if e.Stats().AggFullRows == 0 {
				t.Fatal("canceled run never engaged aggregate maintenance")
			}
			// Retry on the same engine: the cross-check fails the query
			// if a stale accumulator survived the cancel, and parity
			// with a fresh engine catches anything the sample misses.
			got, err := e.Query(q.bounded)
			if err != nil {
				t.Fatalf("retry after cancel: %v", err)
			}
			want, err := lifecycleEngine(t, 1, cfg).Query(q.bounded)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(resultRows(got)) != fmt.Sprint(resultRows(want)) {
				t.Fatal("retry after cancel diverges from a fresh engine: accumulator state leaked")
			}
		})
	}
}

// TestExecScriptContext: scripts honor cancellation at statement
// boundaries, and each statement runs under its own
// Config.QueryTimeout window — a fast statement succeeds before an
// unbounded one times out.
func TestExecScriptContext(t *testing.T) {
	e := lifecycleEngine(t, 4, dbspinner.Config{Parallel: true, QueryTimeout: 25 * time.Millisecond})
	start := time.Now()
	err := e.ExecScriptContext(context.Background(),
		"INSERT INTO edges VALUES (991, 992, 1.0); "+bench.SSSPQuery(1, 100000))
	if !errors.Is(err, dbspinner.ErrQueryTimeout) {
		t.Fatalf("err = %v, want ErrQueryTimeout from the unbounded statement", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("script deadline enforcement took %v", elapsed)
	}
	// The first statement committed before the second timed out.
	n, err := e.TableRowCount("edges")
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("fast statement did not run")
	}
	// A pre-canceled context stops the script before any statement.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.ExecScriptContext(ctx, "INSERT INTO edges VALUES (993, 994, 1.0)"); !errors.Is(err, dbspinner.ErrQueryCanceled) {
		t.Fatalf("pre-canceled script err = %v, want ErrQueryCanceled", err)
	}
	// A bounded script under a generous timeout runs to completion.
	if err := e.ExecScriptContext(context.Background(),
		"INSERT INTO edges VALUES (995, 996, 1.0); SELECT src FROM edges WHERE src = 995"); err != nil {
		t.Fatalf("bounded script failed: %v", err)
	}
}

func resultRows(r *dbspinner.Result) []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row.String()
	}
	return out
}

// TestExplainAnalyzeTrace: EXPLAIN ANALYZE on an iterative query must
// print per-iteration wall-clock, row, and frontier lines plus a
// total.
func TestExplainAnalyzeTrace(t *testing.T) {
	e := lifecycleEngine(t, 4, dbspinner.Config{Parallel: true})
	out, err := e.Explain("EXPLAIN ANALYZE " + bench.PRQuery(3))
	if err != nil {
		t.Fatal(err)
	}
	iterLine := regexp.MustCompile(`Iteration 1: \S+ wall, \d+ rows, frontier \d+\.`)
	if !iterLine.MatchString(out) {
		t.Fatalf("EXPLAIN ANALYZE missing per-iteration line:\n%s", out)
	}
	for i := 1; i <= 3; i++ {
		if !strings.Contains(out, fmt.Sprintf("Iteration %d:", i)) {
			t.Fatalf("EXPLAIN ANALYZE missing iteration %d:\n%s", i, out)
		}
	}
	if !strings.Contains(out, "Total:") {
		t.Fatalf("EXPLAIN ANALYZE missing Total line:\n%s", out)
	}
	if !strings.Contains(out, "Step 1 timing:") {
		t.Fatalf("EXPLAIN ANALYZE missing step timings:\n%s", out)
	}
	// Plain EXPLAIN must stay trace-free.
	plain, err := e.Explain(bench.PRQuery(3))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain, "Iteration 1:") {
		t.Fatalf("plain EXPLAIN leaked trace output:\n%s", plain)
	}
}

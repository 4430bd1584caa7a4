package main

// metricSpec names one reported metric. BENCHMARK.json lists the same
// names, units and directions; a test keeps the two in step.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the engine sees, measured with
// tracing off. Failed queries are reported as the result's failed and
// attempted counts (error_rate is printed with the metrics but is not
// one, being 0 on a healthy run).
var endToEnd = []metricSpec{
	{"query_s", "s", "lower"},             // median wall seconds per query
	{"cpu_s_per_query", "s", "lower"},     // user+system CPU, catches GC on the idle core
	{"alloc_mb_per_query", "MB", "lower"}, // heap bytes allocated per query
	{"allocs_per_query", "count", "lower"},
	{"peak_heap_mb", "MB", "lower"}, // highest heap-in-use seen during a query
	{"heap_live_mb", "MB", "lower"}, // engine footprint after load and a forced GC
	{"setup_s", "s", "lower"},       // engine, DDL, BulkInsert and the warm-up query
}

// perLayer are the traced run's metrics, one group per module. Each
// comment names the end-to-end metric the group should move and on
// which workload; elsewhere the prediction is no change.
var perLayer = []metricSpec{
	// parser.Parse: query_s on sssp-vs-proc only (~36 statements per
	// query); well under 0.1% of the CTE workloads.
	{"parser.parse_us", "us", "lower"},
	{"parser.statements", "count", "lower"},
	// core.Rewrite (Verify off; includes every static analysis) and
	// verify.Check: under 1% of query_s everywhere, so they catch a
	// blow-up rather than show a speed-up. diagnostics must be 0.
	{"core.rewrite_ms", "ms", "lower"},
	{"verify.check_ms", "ms", "lower"},
	{"verify.diagnostics", "count", "lower"},
	// Program.RunContext with the iteration trace: the fractions drive
	// query_s and cpu_s_per_query on sssp-vs; on pagerank (rename
	// path) they read 1, or 0 for the frontier, which the rename path
	// does not compute.
	{"core.execute_s", "s", "lower"},
	{"core.final_ms", "ms", "lower"},
	{"core.iterations", "count", "lower"},
	{"core.iter_ms.p50", "ms", "lower"},
	{"core.frontier_frac", "ratio", "higher"},
	{"core.ri_input_frac", "ratio", "lower"},
	{"core.agg_input_frac", "ratio", "lower"},
	{"core.updated_rows", "count", "lower"},
	{"core.materialized_cells", "count", "lower"},
	{"core.moved_rows", "count", "lower"},
	// Steps grouped by type. Ri runs inside maintain_agg on pagerank and
	// sssp-vs, where incremental aggregation is licensed, and inside
	// materialize on pagerank-vs-mpp, where MPP keeps the full plan:
	// those drive query_s. merge moves sssp-vs, rename pagerank.
	{"step.materialize_s", "s", "lower"},
	{"step.merge_s", "s", "lower"},
	{"step.maintain_agg_s", "s", "lower"},
	{"step.delta_materialize_s", "s", "lower"},
	{"step.rename_s", "s", "lower"},
	{"step.copy_back_s", "s", "lower"},
	{"step.truncate_s", "s", "lower"},
	{"step.loop_s", "s", "lower"},
	// exec.Stats: query_s and the allocation metrics on pagerank, which
	// spends the largest share here, and on sssp-vs.
	{"exec.rows_scanned", "count", "lower"},
	{"exec.rows_joined", "count", "lower"},
	{"exec.rows_grouped", "count", "lower"},
	{"exec.rows_agg_input", "count", "lower"},
	{"exec.result_cells_read", "count", "lower"},
	// mpp exchanges: query_s on pagerank-vs-mpp only; 0 elsewhere.
	{"mpp.rows_shuffled", "count", "lower"},
	{"mpp.shuffles_elided", "count", "higher"},
	{"mpp.rows_elided", "count", "higher"},
	{"mpp.elided_frac", "ratio", "higher"},
	// storage load through catalog + Table.Insert: setup_s and
	// heap_live_mb on every workload.
	{"storage.load_s", "s", "lower"},
	{"storage.bytes_per_edge", "B", "lower"},
	// Engine.Exec per statement kind and the transaction manager:
	// query_s on sssp-vs-proc only; 0 on the CTE workloads.
	{"engine.exec_ms.ddl", "ms", "lower"},
	{"engine.exec_ms.insert", "ms", "lower"},
	{"engine.exec_ms.update", "ms", "lower"},
	{"engine.exec_ms.delete", "ms", "lower"},
	{"engine.exec_ms.select", "ms", "lower"},
	{"txn.wal_records", "count", "lower"},
	{"txn.wal_bytes", "B", "lower"},
	{"txn.locks", "count", "lower"},
	{"txn.commits", "count", "lower"},
	// Go runtime: cpu_s_per_query and alloc_mb_per_query everywhere.
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	// The trace itself: traced query wall, the share of it the layer
	// spans' self times account for, and traced/untraced - 1.
	{"trace.query_s", "s", "lower"},
	{"trace.self_coverage_frac", "ratio", "higher"},
	{"trace.overhead_frac", "ratio", "lower"},
}

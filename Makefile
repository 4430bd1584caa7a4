GO ?= go
BIN := bin

.PHONY: all build test race vet fmt lint fuzz-seed microbench check bench-smoke clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race-enabled run covers the packages with concurrency plus the
# ones the delta-iteration mode touches: the MPP scheduler, the
# executors, the step-program runner, the verifier, and the bench
# harness that drives full-vs-delta engines side by side. The root
# package rides along for the step-scheduler parity matrix, which must
# hold under the race detector.
race:
	$(GO) test -race . ./internal/core/... ./internal/exec/... ./internal/mpp/... ./internal/verify/... ./internal/bench/...

vet:
	$(GO) vet ./...

# Fails when any Go file is not gofmt-clean, listing the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

$(BIN)/spinlint: $(wildcard cmd/spinlint/*.go internal/lint/*.go)
	$(GO) build -o $(BIN)/spinlint ./cmd/spinlint

# Repo-specific analyzers (Step.Run fall-through, result-store access,
# Explain coverage, error context) running under the go vet driver.
lint: $(BIN)/spinlint
	$(GO) vet -vettool=$(CURDIR)/$(BIN)/spinlint ./...

# Run the fuzz targets over their seed corpus only (no mutation): every
# workload query and one variant per UNTIL shape must round-trip
# through parse -> print -> parse. Open-ended exploration is manual:
#   go test -fuzz=FuzzParseRoundTrip ./internal/parser
fuzz-seed:
	$(GO) test -run '^Fuzz' ./internal/parser

# Run the internal/sqltypes and internal/exec microbenchmarks once, so
# they keep compiling and running: BenchmarkCompositeKeyMap times the
# per-row key build and map lookup behind grouping and hash joins, and
# BenchmarkJoinAggregate two hash joins feeding a grouped SUM, the
# shape of a PageRank iteration. Measure with a larger -benchtime.
microbench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/sqltypes ./internal/exec

# The full gate CI runs: gofmt, standard vet, spinlint, build, tests,
# the fuzz seed corpus, the microbenchmarks once, and the race-enabled
# pass over the concurrent packages.
check: fmt vet lint build test fuzz-seed microbench race

# bench-smoke runs the full-vs-delta, full-vs-pruned and
# sequential-vs-scheduled comparisons on small PR-VS and SSSP datasets:
# each fails if its two modes disagree on a single row, delta prints
# the Ri row savings, pruning asserts the materialized-cell reduction
# on PR-VS, and sched prints the region-DAG shape (width, critical
# path) next to the wall-clock and asserts at least one schedule has
# width > 1. trace runs PR and SSSP with iteration tracing on and off,
# asserts identical results plus one span per iteration, and fails if
# the traced run leaves the noise band of the untraced one. shuffle
# runs every workload query with shuffle elision on and off, prints
# rows shuffled next to the wall-clock, asserts identical results with
# the dynamic co-location guard armed, and fails unless the VS
# variants strictly reduce rows shuffled. incagg runs PR and SSSP with
# incremental aggregate maintenance on and off (cross-check armed),
# asserts byte-identical results, and fails unless both cut aggregate
# input rows by at least 40%. faults runs PR and SSSP with back-edge
# checkpointing off and on and once more with a deterministic fault
# schedule injected mid-loop, asserting byte-identical rows in all
# three runs, at least one retry per scheduled fault, and checkpointing
# overhead inside the noise band. The smoke set is declared once in
# cmd/benchrunner; the runner fails if any smoke experiment writes no
# section to bench-smoke.md, so the committed doc cannot silently go
# stale when an experiment is added or renamed.
bench-smoke:
	$(GO) run ./cmd/benchrunner -exp smoke -scale 300 -iterations 5 -reps 1 -partitions 2 -md bench-smoke.md

clean:
	rm -rf $(BIN)
	$(GO) clean -testcache

# Tier-1 verification plus the runner's race certification, one command:
#
#   make check
#
# Individual targets mirror the steps CI (and reviewers) care about.

GO ?= go

.PHONY: all build test short race vet bench bench-json check baseline baseline-record

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Quick inner-loop pass: skips the full-suite golden and determinism tests.
short:
	$(GO) test -short ./...

# Certifies the parallel runner race-free (the determinism regression test
# in internal/core runs the whole suite on an 8-worker pool), the cache
# fast-path differential tests, the event-engine differential (event
# queue vs the reference engine in internal/sim), the memo store, the NFS server
# scale-out model (including the 10^4-client -j1/-j8 byte-identity
# regression), the fault-injection layer — including the CLI
# regression that a faulted `faults` report is byte-identical at -j 1
# and -j 8 — the exemplar reservoirs, the queueing-law audit engine,
# and the serve single-flight path (N concurrent cold clients, one
# computation) under the race detector. The kernel and bench packages
# carry the kernel engine, so it (and every benchmark that runs on it,
# including the lock sweep that feeds exhibits L1/L2) is certified
# race-free too.
race:
	$(GO) test -race ./internal/core/... ./internal/cache/... ./internal/memmodel/... ./internal/memo/... ./internal/sim/... ./internal/fault/... ./internal/nfsserver/... ./internal/cli/... ./internal/obs/... ./internal/audit/... ./internal/kernel/... ./internal/bench/...

vet:
	$(GO) vet ./...

# Whole-suite wall-clock: serial (seed harness schedule) vs the parallel
# memoized runner. One iteration each; see EXPERIMENTS.md "Harness
# performance" for recorded results.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSuite' -benchtime 1x .

# Machine-readable suite wall-clock timings (cold, memo-fill, memo-warm;
# best of three each, cold/warm outputs compared byte for byte), the NFS
# scale-out sweep timings at 10^3 and 10^6 clients, the SMP lock-sweep
# wall time (`locks`), and the `serve` replay throughput under
# concurrent load, written to BENCH_pr10.json — the perf-trajectory
# record.
bench-json:
	sh scripts/bench_json.sh BENCH_pr10.json

# Metric regression gate: re-run the probes with the committed baseline's
# recorded seed and diff every metric point (exact for integer ledgers,
# 1e-9 relative for floats). Fails with a ranked table on any change;
# re-record with `make baseline-record` when a change is intended.
baseline:
	$(GO) run ./cmd/pentiumbench baseline check

baseline-record:
	$(GO) run ./cmd/pentiumbench baseline record all

check: build vet test race

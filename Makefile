# Checks every PR must pass. `make check` is the full gate; the individual
# targets exist so CI can fan them out. The race target covers the event
# kernel and the one-sided layer, whose no-host-races-by-construction claim
# (one simulated process per engine shard runs at a time, handed the thread
# by coroutine switch from the shard's one driver; cross-shard traffic and
# worker failures through the coordinator's channel handshakes and the
# conservative merge protocol of DESIGN.md §8) is what the whole
# deterministic simulation rests on. internal/sim needs a Go 1.23+
# toolchain (README.md, "Install / run").

GO ?= go

.PHONY: check fmt vet build test benchmark-test shuffle race race-all golden faults sdc validate hostperf docscheck linkcheck perf perfgate perf-baseline taskbench taskbench-baseline

check: fmt vet build test benchmark-test shuffle race golden faults sdc validate docscheck linkcheck perfgate taskbench

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The host-time benchmark is a nested module (benchmark/go.mod), which the
# root `go test ./...` does not see. Its tests run every workload at the
# -tiny scale (~3 s) and require each pass to reproduce the first pass's
# simulated result and every layer count — a free nondeterminism detector.
# The benchmark itself is `bash benchmark/run.sh` (see BENCHMARK.json).
benchmark-test:
	cd benchmark && $(GO) test ./...

# Same suite in a shuffled order to flush test-order dependencies.
# -count=1 defeats the cache (a cached run would reuse the ordered pass).
shuffle:
	$(GO) test -shuffle=on -count=1 ./...

race:
	$(GO) test -race ./internal/sim ./internal/rma

# Whole-module race run (CI's second job; slower than `race`).
race-all:
	$(GO) test -race ./...

# Determinism gate: the golden digest must be bit-identical run-to-run
# with tracing ON, and the trace->dump->analyze pipeline must hold up on
# a 16-rank run. -count=1 defeats the test cache so CI really re-runs it.
golden:
	$(GO) test -count=1 -run 'KernelDeterminismGolden|CilksortTraceReport|MetricsRunStable' ./internal/bench

# Fault suite: the seeded-fault golden (same plan -> bit-identical run),
# the zero-overhead-when-off digest, and every app terminating correctly
# under every canned plan.
faults:
	$(GO) test -count=1 -run 'FaultDeterminismGolden|EmptyPlanMatchesNoPlan|FaultPlansAppsTerminate|FaultBenchSmoke' ./internal/bench
	$(GO) test -count=1 ./internal/fault

# Silent-data-corruption suite: disabled-path digest inertness, seeded
# corruption determinism, the negative control (defenses down -> output
# provably corrupt), zero escapes at full replication, combined
# corruption+flaky-RMA recovery, the wire checksum, and serial/sharded
# digest parity with replication armed (the parity case also runs under
# the race detector to prove the protector state is properly sharded).
sdc:
	$(GO) test -count=1 -run 'SDC' ./internal/bench
	$(GO) test -count=1 -race -run 'SDCShardedParity' ./internal/bench

# Checkout-discipline validator suite: every documented memory-model rule
# has a failing program whose diagnostic names the rule, window, offset
# range and task segments; clean DAG runs stay silent; the validator-off
# hot path allocates nothing; and the serial/sharded violation reports are
# bit-identical (that parity case also runs under the race detector, since
# SPMD-phase checkouts reach the validator from parallel host shards).
validate:
	$(GO) test -count=1 -run 'TestValidator|TestSetPolicy' ./internal/core
	$(GO) test -count=1 -race -run 'TestValidatorShardParity' ./internal/core

# Host-side throughput report (not part of check: timing-sensitive).
hostperf:
	$(GO) run ./cmd/itybench -hostperf BENCH_sim.json -count 3 -procs 8 -scaling -fleet 64

# Deterministic perf suite: simulated time, RMA round trips and bytes per
# experiment at smoke scale. Bit-identical on every host, so perfgate can
# hold the numbers to the checked-in BENCH_baseline.json within ±2%.
perf:
	$(GO) run ./cmd/itybench -perf BENCH_perf.json -scale smoke

perfgate: perf
	$(GO) run ./internal/tools/perfgate -baseline BENCH_baseline.json -current BENCH_perf.json

# Regenerate the checked-in baseline after an intentional perf change
# (perfgate fails on unre-baselined improvements too); commit the result.
perf-baseline:
	$(GO) run ./cmd/itybench -perf BENCH_baseline.json -scale smoke

# Task Bench workload matrix: graph shape × task grain × scheduling policy
# at smoke scale, every cell gated against the checked-in
# BENCH_taskbench.json within ±2% (like perf, the numbers are simulated
# and bit-identical on every host). The -race parity test then re-runs
# one cell per scheduler serial vs 4 engine shards and requires identical
# digests — the sharded-host gate for the scheduler seam.
taskbench:
	$(GO) run ./cmd/itybench -taskbench BENCH_taskbench.current.json -scale smoke
	$(GO) run ./internal/tools/perfgate -schema taskbench -baseline BENCH_taskbench.json -current BENCH_taskbench.current.json
	$(GO) test -count=1 -race -run 'TestHostProcsParity' ./internal/apps/taskbench

# Regenerate the checked-in matrix baseline after an intentional change;
# commit the result (TestTaskbenchBaselineFresh fails until you do).
taskbench-baseline:
	$(GO) run ./cmd/itybench -taskbench BENCH_taskbench.json -scale smoke

# Documentation gates: every package keeps a package comment (and the public
# ityr package plus internal/pgas — the memory-model contract surface —
# keep per-identifier docs); markdown links and code fences in the
# top-level docs stay valid.
docscheck:
	$(GO) run ./internal/tools/docscheck

linkcheck:
	$(GO) run ./internal/tools/linkcheck README.md DESIGN.md EXPERIMENTS.md PITFALLS.md

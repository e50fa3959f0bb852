# Checks every PR must pass. `make check` is the full gate; the individual
# targets exist so CI can fan them out (golden, faults, budget, sdc and
# validate are subsets of `test`, which `check` runs ordered and shuffled, so
# only CI names them). The race target covers the event kernel and the one-sided layer, whose no-host-races-by-construction claim
# (one simulated process runs at a time, handed the thread by coroutine
# switch from the engine's one driver) is what the whole deterministic
# simulation rests on; the scheduler, whose idle loop is an AdvanceFunc step
# and so runs on whichever coroutine (or driver) is dispatching, not on its
# worker's own; the fleet, the one place engines run concurrently; and the
# process-wide cache-block pool those engines share (the fleet runs halo,
# which never takes a block from it, so memblock's own test does); and the
# root package and the software cache, because a checkout that lies in one
# cache block hands out the block's own bytes and ityr.Checkout reads them
# as a typed slice through unsafe, whose alignment -race's checkptr checks.
# internal/sim needs a Go 1.23+ toolchain (README.md, "Install / run").
#
# Not a check: `make profile BENCH=Scaling/halo-spmd/4096` CPU-profiles one
# row of `itybench scaling`, `make profile BENCH=Workload/cilksort-64r` the
# benchmark's cilksort-64r (also Workload/utsmem-64r, Workload/forkjoin-4096r
# and Workload/halo-4096r), `make profile BENCH=Suite/fig11` one suite at the
# quick scale, and prints the flat top of the profile. It wraps
#   go test ./internal/bench -run '^$' -bench 'Scaling/halo-spmd/4096' -cpuprofile halo.prof
#   go test . -run '^$' -bench 'Suite/fig11' -cpuprofile fig11.prof
# (BenchmarkScaling, BenchmarkWorkload and BenchmarkSuite run each row,
# workload or suite through its own run function), the way to find out where
# a workload's host time goes before explaining it.

GO ?= go

.PHONY: check fmt vet build test benchmark-test shuffle race race-all golden faults budget sdc validate fuzz-matrix obs-smoke docscheck linkcheck profile loc

check: fmt vet build test benchmark-test shuffle race obs-smoke docscheck linkcheck gate-perf gate-taskbench gate-faults gate-scaling gate-figures

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

# $(call subset,PATTERN,PACKAGE[,FLAGS]) is `go test -count=1 -run PATTERN`
# (-count=1 defeats the test cache so CI really re-runs it) that fails when
# the pattern matches nothing: go test then prints "no tests to run" and
# exits 0, so a renamed test would silently leave its target.
subset = out=$$($(GO) test -count=1 $(3) -run '$(1)' $(2) 2>&1); status=$$?; echo "$$out"; \
	case "$$out" in *"no tests to run"*) echo "make $@: -run '$(1)' matches no test in $(2)"; exit 1;; esac; \
	exit $$status

race:
	$(GO) test -race . ./internal/sim ./internal/rma ./internal/uth ./internal/memblock ./internal/pgas
	@$(call subset,Fleet,./internal/bench,-race)

# Whole-module race run (CI's second job; slower than `race`).
race-all:
	$(GO) test -race ./...

# Determinism gate: the fork-join and halo digests must reproduce their
# pins (the golden table, tracing ON), and the trace->dump->analyze
# pipeline must hold up on a 16-rank run.
golden:
	@$(call subset,Pinned(Kernel|Halo|Policy)Digests|CilksortTraceReport|MetricsRunStable,./internal/bench)

# Fault suite: the seeded-fault pins (same plan -> the pinned run), the
# zero-overhead-when-off digest, every app terminating correctly under
# every canned plan, and a straggler run banking its charges.
faults:
	@$(call subset,FaultDeterminismGolden|EmptyPlanMatchesNoPlan|FaultPlansAppsTerminate|FaultBenchSmoke|StragglerRunsBank,./internal/bench)
	$(GO) test -count=1 ./internal/fault

# Host-memory budgets: rank set-up at 16K ranks, a region in which every
# rank steals, a noncollective allocation a rank, and the cache-block storage
# a cilksort run leaves in the process-wide pool.
budget:
	@$(call subset,TestRankSetupMemoryBudget|TestRankRunMemoryBudget|TestNoncollectiveHeapMemoryBudget|TestCacheStorageBudget,./internal/bench)

# Silent-data-corruption suite: disabled-path digest inertness, seeded
# corruption determinism, the negative control (defenses down -> output
# provably corrupt, the report flagging the escapes), zero escapes at full
# replication and combined corruption+flaky-RMA recovery.
sdc:
	@$(call subset,SDC,./internal/bench)

# Checkout-discipline validator suite: every documented memory-model rule
# has a failing program whose diagnostic names the rule, window, offset
# range and task segments; clean DAG runs stay silent; and the
# validator-off hot path allocates nothing. The app matrix then runs
# cilksort and utsmem validated in every cell and requires no violation.
# Last, utsmem at its default tree and a million-key cilksort, built once,
# run validated and must report clean, each within 30 s (about ten times
# the validated sort on 2 CPUs, whose plain run takes 1.5–2 s), so a
# validator cost regression fails the target; each leg prints its wall
# time.
validate:
	@$(call subset,TestValidator,./internal/core)
	@$(call subset,TestAppsVerifiedAcrossPoliciesAndSchedulers,./internal/bench)
	@bin=$$(mktemp -d) && trap 'rm -rf "$$bin"' EXIT && \
	$(GO) build -o "$$bin/" ./cmd/utsmem ./cmd/cilksort && \
	for app in "utsmem -ranks 8" "cilksort -n 1048576 -cutoff 256 -ranks 8"; do \
		t0=$$(date +%s%N); \
		out=$$(timeout 30 "$$bin"/$$app -validate 2>&1) || \
			{ echo "$$out"; echo "validate: $$app -validate failed or timed out (30 s)"; exit 1; }; \
		echo "$$out" | grep -q 'validator: clean' || \
			{ echo "$$out"; echo "validate: $$app -validate did not print 'validator: clean'"; exit 1; }; \
		echo "validate: $$app -validate clean in $$(( ($$(date +%s%N) - t0) / 1000000 )) ms"; \
	done

# The wide sweep of the app matrix (not in `check`; CI's faults job runs
# it): the flaky-RMA column of TestAppsVerifiedAcrossPoliciesAndSchedulers
# — cilksort and utsmem, validated, every cache policy × scheduler under
# fault.PlanFlakyRMA at eight victim seeds — at the quick scale, 192 cells
# in about 4–5 minutes on 2 CPUs. It is the only sweep that reaches the
# paper's default configuration (Write-Back (Lazy), child-first) with
# write-backs long enough to race a Join.
fuzz-matrix:
	@$(call subset,TestFlakyMatrixQuick,./internal/bench -wide-matrix,-timeout 20m -v)

# Observability pipeline smoke: a small cilksort with the span trace, the
# metrics document and the streaming profile all armed, pushed through the
# whole itytrace report. The ring is unbounded, so a dropped-span WARNING
# (or any report error) fails it. The metrics and profile documents
# itytrace extracts from the dump must be the bytes the run wrote itself.
# Then the negative control: the same cilksort under -sdc (task-result bit
# flips, defenses down) must exit 1, and its report must flag the
# undetected escapes and print the per-rank table.
# Then the other two app commands, utsmem and a small fmm, traced through
# the same report, which must not warn either; and each once under -sdc
# -replicate 1, which must exit 0 and print the SDC summary line in the
# bytes every command prints it in (obs.SDCSummary), with no escape.
# Last, fmm under -sdc alone must exit 1: its escapes fail the run even
# though fmm checks nothing of its own output by default.
# Leaves obs-smoke.* in the checkout (git-ignored); CI uploads the profile
# and the report.
obs-smoke:
	$(GO) run ./cmd/cilksort -n 32768 -cutoff 1024 -ranks 16 \
		-trace obs-smoke.trace -metrics obs-smoke.metrics.json -profile obs-smoke.profile.json
	$(GO) run ./cmd/itytrace -metrics obs-smoke.x.metrics.json -profile obs-smoke.x.profile.json \
		obs-smoke.trace > obs-smoke.report.txt
	@if grep -E '^WARNING' obs-smoke.report.txt; then echo "make obs-smoke: the report warns"; exit 1; fi
	cmp obs-smoke.x.metrics.json obs-smoke.metrics.json
	cmp obs-smoke.x.profile.json obs-smoke.profile.json
	$(GO) run ./cmd/cilksort -n 32768 -cutoff 1024 -ranks 16 -sdc -trace obs-smoke.sdc.trace > obs-smoke.sdc.out; \
		status=$$?; if [ $$status -ne 1 ]; then echo "make obs-smoke: cilksort -sdc exited $$status, want 1"; exit 1; fi
	$(GO) run ./cmd/itytrace obs-smoke.sdc.trace > obs-smoke.sdc.report.txt
	@grep -q 'UNDETECTED ESCAPE' obs-smoke.sdc.report.txt || { echo "make obs-smoke: the -sdc report flags no escape"; exit 1; }
	@grep -q 'sdc per-rank corruption' obs-smoke.sdc.report.txt || { echo "make obs-smoke: the -sdc report has no per-rank table"; exit 1; }
	$(GO) run ./cmd/utsmem -ranks 8 -trace obs-smoke.utsmem.trace > obs-smoke.utsmem.out
	$(GO) run ./cmd/itytrace obs-smoke.utsmem.trace > obs-smoke.utsmem.report.txt
	$(GO) run ./cmd/fmm -n 2000 -ranks 16 -trace obs-smoke.fmm.trace > obs-smoke.fmm.out
	$(GO) run ./cmd/itytrace obs-smoke.fmm.trace > obs-smoke.fmm.report.txt
	@if grep -E '^WARNING' obs-smoke.utsmem.report.txt obs-smoke.fmm.report.txt; then echo "make obs-smoke: a report warns"; exit 1; fi
	$(GO) run ./cmd/utsmem -ranks 8 -sdc -replicate 1 > obs-smoke.utsmem.sdc.out
	$(GO) run ./cmd/fmm -n 2000 -ranks 16 -sdc -replicate 1 > obs-smoke.fmm.sdc.out
	@for f in obs-smoke.utsmem.sdc.out obs-smoke.fmm.sdc.out; do \
		grep -Eq '^  sdc {8}protected=[0-9]+ replicas=[0-9]+ detected=[0-9]+ recovered=[0-9]+ escaped=0$$' $$f || \
		{ echo "make obs-smoke: $$f has no SDC summary line with zero escapes"; exit 1; }; done
	$(GO) run ./cmd/fmm -n 2000 -ranks 16 -sdc > obs-smoke.fmm.escape.out; \
		status=$$?; if [ $$status -ne 1 ]; then echo "make obs-smoke: fmm -sdc exited $$status, want 1"; exit 1; fi

# The gated suites. Every root BENCH_<suite>.json is an itoyori-bench/v1
# report of `itybench <suite>`, and `make gate-<suite>` reruns the suite
# and holds every number in it to the checked-in file within ±2% — except
# the ones the file itself lists under "host" (wall clock, allocation),
# which are printed, never gated. The gated numbers are simulated and
# bit-identical on every host, so drift is a code change, not noise:
#   perf       simulated time, RMA round trips and bytes per app
#   taskbench  the same three per graph shape × task grain × scheduler cell
#   faults     every app under every canned fault plan and the SDC
#              replication sweep: times, counters and the ok verdict
#   scaling    64→16,384-rank halo/cilksort sweep (sim time, events) and
#              the 64-simulation fleet's digest cross-check
#   figures    the reproduction: every point of Table 1, Fig 7–11, Table 2
#              and the ablations, and each claim the paper makes about them
#              as a 0/1 verdict (claim/<figure> rows, held exactly);
#              EXPERIMENTS.md's tables are rendered from this file
# Each baseline is taken at the scale its row says below.
SCALE_perf      = smoke
SCALE_taskbench = smoke
SCALE_faults    = full
SCALE_scaling   = full
SCALE_figures   = quick

gate-%:
	$(GO) run ./cmd/itybench -scale $(SCALE_$*) -o BENCH_$*.current.json $*
	$(GO) run ./internal/tools/perfgate -baseline BENCH_$*.json -current BENCH_$*.current.json

# Regenerate a checked-in baseline after an intentional change (the gate
# fails on unre-baselined improvements too; TestBaselinesFresh fails until
# the smoke-scale ones are regenerated); commit the result.
baseline-%:
	$(GO) run ./cmd/itybench -scale $(SCALE_$*) -o BENCH_$*.json $*

# CPU profile of one benchmark: Scaling/<workload>/<ranks>, a row as
# `itybench scaling` names it (BenchmarkScaling in internal/bench, 5 runs),
# Workload/cilksort-64r, the benchmark's workload of that name (or
# utsmem-64r, forkjoin-4096r, halo-4096r; BenchmarkWorkload in
# internal/bench, 5 runs), or Suite/<name>, an
# `itybench` suite at the quick scale (BenchmarkSuite in the root package, 1
# run). The test binary and the profile stay out of the
# checkout.
BENCH       ?= Scaling/halo-spmd/4096
PROFILE_DIR ?= $(or $(TMPDIR),/tmp)

profile:
	$(GO) test $(if $(filter Suite/%,$(BENCH)),.,./internal/bench) -run '^$$' \
		-bench '^Benchmark$(subst /,$$/^,$(BENCH))$$' -benchtime $(if $(filter Suite/%,$(BENCH)),1x,5x) \
		-o $(PROFILE_DIR)/bench.test -outputdir $(PROFILE_DIR) -cpuprofile bench.prof
	$(GO) tool pprof -top -nodecount 25 $(PROFILE_DIR)/bench.test $(PROFILE_DIR)/bench.prof

# Non-test Go lines outside the nested benchmark module (and hidden build
# directories): the size ROADMAP aim 2 tracks. A PR's "net lines" in
# CHANGES.md is the change in this number.
loc:
	@find . \( -path ./benchmark -o -path './.*' \) -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l

# Documentation gates: every package keeps a package comment (and the public
# ityr package plus internal/pgas — the memory-model contract surface —
# keep per-identifier docs); markdown links and code fences in the
# top-level docs stay valid.
docscheck:
	$(GO) run ./internal/tools/docscheck

linkcheck:
	$(GO) run ./internal/tools/linkcheck README.md DESIGN.md EXPERIMENTS.md PITFALLS.md

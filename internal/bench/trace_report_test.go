package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ityr"
	"ityr/internal/apps/cilksort"
	"ityr/internal/trace"
)

// TestCilksortTraceReport is the end-to-end check on the observability
// pipeline: run cilksort on 16 ranks with tracing on, serialize the
// itytrace/v1 dump exactly as the -trace flag does, read it back, and
// require of the analysis a positive critical path bounded by the work and
// a busy/steal/idle decomposition for all 16 ranks from the spans, and of
// the report cmd/itytrace prints (trace.Report) the scheduler's steal
// count with its latency histogram from the embedded metrics.
func TestCilksortTraceReport(t *testing.T) {
	const nranks = 16
	cfg := runtimeConfig(nranks, 8, ityr.WriteBackLazy, 7)
	cfg.Trace = true
	_, rt := runCilksort(cfg, cilksort.Params{N: 1 << 15, Cutoff: 1024, Seed: 7, Dist: ityr.BlockCyclicDist})

	var buf bytes.Buffer
	if err := rt.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	l, meta, err := trace.ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Ranks != nranks {
		t.Errorf("meta.Ranks = %d, want %d", meta.Ranks, nranks)
	}
	if meta.Metrics == nil {
		t.Error("dump carries no embedded metrics snapshot")
	}

	a := trace.Analyze(l, meta.Ranks)
	if a.CritPath <= 0 {
		t.Fatalf("critical path = %d, want > 0", a.CritPath)
	}
	if a.Work < a.CritPath {
		t.Errorf("work %d < critical path %d", a.Work, a.CritPath)
	}
	if a.Parallelism <= 1 {
		t.Errorf("parallelism = %.2f, want > 1 for a 16-rank sort", a.Parallelism)
	}
	if a.LiveTasks != 0 {
		t.Errorf("LiveTasks = %d: unbounded trace should close every task", a.LiveTasks)
	}
	if len(a.Ranks) != nranks {
		t.Fatalf("len(Ranks) = %d, want %d", len(a.Ranks), nranks)
	}
	busyRanks := 0
	for _, r := range a.Ranks {
		if tot := r.Busy + r.Steal + r.Idle; tot > a.Elapsed {
			t.Errorf("rank %d: busy+steal+idle %d exceeds elapsed %d", r.Rank, tot, a.Elapsed)
		}
		if r.Busy > 0 {
			busyRanks++
		}
	}
	if busyRanks < 2 {
		t.Errorf("only %d ranks show busy time; work stealing did not spread", busyRanks)
	}

	var rep strings.Builder
	trace.Report(&rep, "cilksort.trace", l, meta)
	steals := rt.Sched().Stats.Steals
	for _, want := range []string{"trace cilksort.trace: ", "critical path", "parallelism", "hit rate",
		fmt.Sprintf("%8d ok, %d failed", steals, rt.Sched().Stats.FailedSteals),
		fmt.Sprintf("steal latency (ns): count %d ", steals)} {
		if !strings.Contains(rep.String(), want) {
			t.Errorf("report missing %q:\n%s", want, rep.String())
		}
	}
}

// TestMetricsRunStable pins the promise made by the app CLIs' -metrics flag:
// the snapshot is deterministic, so two identical runs — the canonical Fig. 7
// cilksort configuration, the lazy policy on the scale's fixed rank count —
// emit byte-identical JSON (stable key order included) that downstream
// diffing can rely on.
func TestMetricsRunStable(t *testing.T) {
	snapshot := func() string {
		var b bytes.Buffer
		_, rt := figCilksort(Smoke.CilksortN, Smoke.SortCutoff, Smoke.FixedRanks, Smoke.CoresPerNode, ityr.WriteBackLazy, 11)
		if err := rt.WriteMetrics(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := snapshot(), snapshot()
	if a != b {
		t.Error("metrics snapshots differ between identical runs")
	}
	if !strings.Contains(a, `"schema": "itoyori-metrics/v1"`) {
		t.Errorf("snapshot missing schema marker:\n%.400s", a)
	}
}

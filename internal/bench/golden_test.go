package bench

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"ityr"
	"ityr/internal/apps/cilksort"
	"ityr/internal/pgas"
	"ityr/internal/sim"
)

// kernelDigest runs the Fig. 7 cilksort configuration once under pol with
// tracing enabled and folds every kernel-visible observable into one
// printable digest: the final virtual clock, the measured sort time, the
// RMA traffic counters, the PGAS cache statistics, the scheduler
// statistics, the profiler breakdown, and the complete timestamped trace
// event stream. Any change to event ordering, to a single simulated
// timestamp, or to a single fence/cache decision changes the digest.
func kernelDigest(t *testing.T, sc Scale, pol ityr.Policy) string {
	t.Helper()
	cfg := runtimeConfig(sc.FixedRanks, sc.CoresPerNode, pol, 11)
	return configDigest(t, cfg, sc.CilksortN, sc.Cutoffs[0])
}

// configDigest is the digest body, parameterized over the full runtime
// config so the fault-injection golden (fault_test.go) can reuse it with
// an armed plan.
func configDigest(t *testing.T, cfg ityr.Config, n, cutoff int64) string {
	t.Helper()
	cfg.Trace = true
	rt := ityr.NewRuntime(cfg)
	var elapsed sim.Time
	err := rt.Run(func(s *ityr.SPMD) {
		var a, b ityr.GSpan[cilksort.Elem]
		if s.Rank() == 0 {
			a = ityr.AllocArraySPMD[cilksort.Elem](s, n, ityr.BlockCyclicDist)
			b = ityr.AllocArraySPMD[cilksort.Elem](s, n, ityr.BlockCyclicDist)
		}
		s.Barrier()
		s.RootExec(func(c *ityr.Ctx) {
			cilksort.Generate(c, a, 11)
		})
		rt.Profiler().ResetRank(s.Rank())
		t0 := s.Now()
		s.RootExec(func(c *ityr.Ctx) {
			cilksort.Sort(c, a, b, cutoff)
		})
		if s.Rank() == 0 {
			elapsed = s.Now() - t0
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "rma=%+v\n", rt.Comm().Stats())
	fmt.Fprintf(h, "pgas=%+v\n", rt.Space().Stats)
	// Batch stats join the digest only when nonzero, so digests of runs
	// with the batching knobs off stay comparable across versions that
	// predate the batching layer (pinned by TestBatchingOffMatchesSeed).
	if b := rt.Space().Batch; b != (pgas.BatchStats{}) {
		fmt.Fprintf(h, "batch=%+v\n", b)
	}
	fmt.Fprintf(h, "sched=%+v\n", rt.Sched().Stats)
	bd := rt.Profiler().Breakdown(elapsed)
	cats := make([]string, 0, len(bd))
	for k := range bd {
		cats = append(cats, k)
	}
	sort.Strings(cats)
	for _, k := range cats {
		fmt.Fprintf(h, "prof %s=%d\n", k, bd[k])
	}
	for _, ev := range rt.Trace().Events() {
		fmt.Fprintf(h, "ev %d %d %d %d %d %d\n", ev.T, ev.Dur, ev.Rank, ev.Kind, ev.Arg, ev.Arg2)
	}
	fmt.Fprintf(h, "final=%d elapsed=%d\n", rt.Engine().Now(), elapsed)
	return fmt.Sprintf("elapsed=%d final=%d events=%d fnv=%016x",
		elapsed, rt.Engine().Now(), rt.Trace().Len(), h.Sum64())
}

// TestKernelDeterminismGolden is the safety net for the event-kernel fast
// path (zero-handoff Advance, coalesced resumes, the hand-rolled event
// queue) and for all future kernel work: it runs the Fig. 7 cilksort
// configuration twice per cache policy with a fixed seed and requires the
// two digests — simulated timestamps, Stats, prof breakdowns and trace
// streams included — to be bit-identical. The digests are also logged so a
// kernel change can be diffed against a pre-change run with `go test -run
// KernelDeterminismGolden -v`.
func TestKernelDeterminismGolden(t *testing.T) {
	for _, pol := range ityr.Policies {
		a := kernelDigest(t, Smoke, pol)
		b := kernelDigest(t, Smoke, pol)
		t.Logf("%-20s %s", pol, a)
		if a != b {
			t.Errorf("%s: run-to-run digest mismatch:\n  first:  %s\n  second: %s", pol, a, b)
		}
	}
}

package bench

import (
	"runtime"
	"testing"

	"ityr"
)

// Per-rank budgets on the rank-setup path (ityr.NewRuntime at 16,384
// ranks): the guardrail for ROADMAP item 1's "memory footprint must stay
// affordable at 16K ranks". Measured: ~1.7 KB retained and 5 heap objects
// per rank, flat from 1K to 16K ranks (per-rank maps or O(n²) communicator
// state blow straight through this; a worker's victim stream is one uint64
// in the Worker). The budgets leave feature work some headroom while a
// reintroduced per-rank map, ragged slice or per-rank PRNG fails;
// TestRankRunMemoryBudget holds a worker's first steals to the same rule.
const (
	budgetRanks           = 16384
	budgetBytesPerRank    = 3 * 1024
	budgetMallocsPerRank  = 8
	budgetSetupTotalBytes = budgetRanks * budgetBytesPerRank
)

// setupRuntime constructs (but does not run) a runtime at the canonical
// benchmark geometry — the allocation-heavy path every scaling-sweep and
// fleet member pays per simulation.
func setupRuntime(ranks int) *ityr.Runtime {
	return ityr.NewRuntime(runtimeConfig(ranks, 8, ityr.WriteBackLazy, 11))
}

func TestRankSetupMemoryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("16K-rank setup allocates ~115MB; skipped under -short")
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	rt := setupRuntime(budgetRanks)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	retained := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	mallocs := int64(m1.Mallocs) - int64(m0.Mallocs)
	runtime.KeepAlive(rt)

	perRank := float64(retained) / budgetRanks
	t.Logf("ranks=%d retained=%.1fMB (%.0f B/rank, budget %d), mallocs/rank=%.1f (budget %d)",
		budgetRanks, float64(retained)/1e6, perRank, budgetBytesPerRank,
		float64(mallocs)/budgetRanks, budgetMallocsPerRank)
	if retained > budgetSetupTotalBytes {
		t.Errorf("rank setup retains %.0f B/rank, over the %d B/rank budget — per-rank state grew",
			perRank, budgetBytesPerRank)
	}
	if mallocs > budgetMallocsPerRank*budgetRanks {
		t.Errorf("rank setup makes %.1f allocations/rank, over the %d/rank budget — a per-rank allocation crept back in",
			float64(mallocs)/budgetRanks, budgetMallocsPerRank)
	}
}

// BenchmarkRankSetup16K reports the setup path's cost per rank so the
// numbers behind the budget above are reproducible with `go test -bench`.
func BenchmarkRankSetup16K(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt := setupRuntime(budgetRanks)
		runtime.KeepAlive(rt)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/budgetRanks, "ns/rank")
}

// runRanks is the run budget's geometry: the benchmark's forkjoin-4096r.
const runRanks = 4096

// TestRankRunMemoryBudget: one fork-join region in which every idle rank
// steals retains under 1 KB a rank more than set-up did. The victim stream
// lives in the Worker, so the first steal allocates nothing; a 4.9 KB
// per-rank PRNG made on first use would blow through it.
func TestRankRunMemoryBudget(t *testing.T) {
	var m0, m1 runtime.MemStats
	rt := setupRuntime(runRanks)
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if _, err := rt.RunRoot(func(c *ityr.Ctx) { c.Charge(200 * ityr.Microsecond) }); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	grew := float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / runRanks
	runtime.KeepAlive(rt)
	if f := rt.Sched().Stats.FailedSteals; f < runRanks {
		t.Fatalf("%d failed steals on %d ranks: not every rank stole", f, runRanks)
	}
	t.Logf("ranks=%d: a region retains %.0f B/rank over set-up (budget 1024)", runRanks, grew)
	if grew >= 1024 {
		t.Errorf("a region in which every rank steals retains %.0f B/rank over set-up, over the 1 KB budget", grew)
	}
}

// ncRanks is the noncollective heap budget's geometry: the benchmark's
// utsmem-64r.
const ncRanks = 64

// TestNoncollectiveHeapMemoryBudget: an SPMD region in which every rank
// allocates one small object from its noncollective heap retains at most two
// cache blocks a rank more than set-up did. The first allocation attaches
// 2 MiB of simulated window; backing all of it with host memory would retain
// 2 MiB a rank.
func TestNoncollectiveHeapMemoryBudget(t *testing.T) {
	var m0, m1 runtime.MemStats
	rt := setupRuntime(ncRanks)
	budget := 2 * float64(rt.Config().Pgas.BlockSize)
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if err := rt.Run(func(s *ityr.SPMD) { s.Local().AllocLocal(16) }); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	grew := float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / ncRanks
	runtime.KeepAlive(rt)
	t.Logf("ranks=%d: one small noncollective allocation a rank retains %.0f B/rank over set-up (budget %.0f)", ncRanks, grew, budget)
	if grew > budget {
		t.Errorf("one small noncollective allocation a rank retains %.0f B/rank over set-up, over the %.0f B (two blocks) budget", grew, budget)
	}
}

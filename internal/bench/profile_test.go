package bench

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"ityr"
	"ityr/internal/apps/cilksort"
	"ityr/internal/apps/halo"
	"ityr/internal/profile"
)

// TestProfileHaloSnapshot checks what the streaming profile of an SPMD run
// holds: the header, barrier and stall activity, and every locality tier
// the ring crosses.
func TestProfileHaloSnapshot(t *testing.T) {
	cfg := withProfile(profileHalo)
	var rt *ityr.Runtime
	cfg.Observe = func(r *ityr.Runtime) { rt = r }
	if _, err := halo.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if rt.Profile() == nil {
		t.Fatal("profile armed but Runtime.Profile is nil")
	}
	doc := *rt.Profile().Snapshot()
	if doc.Schema != profile.Schema || doc.Ranks != 16 {
		t.Errorf("snapshot header = %s/%d", doc.Schema, doc.Ranks)
	}
	if doc.Rollup.PutOps == 0 || doc.Rollup.BarrierNs == 0 || doc.Rollup.StallNs == 0 {
		t.Errorf("halo rollup missing expected activity: %+v", doc.Rollup)
	}
	// The ring on 4-rank nodes crosses every locality tier except self.
	byTier := map[string]uint64{}
	for _, ts := range doc.Tiers {
		byTier[ts.Tier] = ts.Ops
	}
	if byTier["node"] == 0 || byTier["fabric"] == 0 {
		t.Errorf("the ring should touch the node and fabric tiers: %+v", doc.Tiers)
	}
	if doc.Matrix == nil {
		t.Error("16-rank run should carry the exact matrix")
	}
}

// TestProfileForkJoinEquivalence covers the fork-join regime, where spans
// come from the scheduler (task/steal/idle) rather than SPMD barriers: two
// runs of one configuration must write byte-identical snapshots.
func TestProfileForkJoinEquivalence(t *testing.T) {
	run := func() []byte {
		cfg := runtimeConfig(Smoke.FixedRanks, Smoke.CoresPerNode, ityr.WriteBackLazy, 11)
		cfg.Profile = true
		_, rt := runCilksort(cfg, cilksort.Params{N: Smoke.CilksortN, Cutoff: Smoke.Cutoffs[0],
			Seed: 11, Dist: ityr.BlockCyclicDist})
		var buf bytes.Buffer
		if err := rt.WriteProfile(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := run()
	if got := run(); !bytes.Equal(got, want) {
		t.Error("fork-join profile differs between two runs of one configuration")
	}
	var doc profile.Doc
	if err := json.Unmarshal(want, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Rollup.TaskNs == 0 || doc.Rollup.GetOps == 0 {
		t.Errorf("fork-join rollup missing task/get activity: %+v", doc.Rollup)
	}
}

// Profile state budgets at the 16K-rank scale: O(buckets + top-K) per
// rank, never O(ranks²). The collector alone must stay within
// profileBudgetBytesPerRank, and a full runtime with profiling armed
// within that plus the per-rank setup budget (budget_test.go).
const profileBudgetBytesPerRank = 3 * 1024

func retainedBytes(t *testing.T, f func() any) float64 {
	t.Helper()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	keep := f()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	ret := float64(int64(m1.HeapAlloc) - int64(m0.HeapAlloc))
	runtime.KeepAlive(keep)
	return ret
}

func TestProfileMemoryBudget16K(t *testing.T) {
	if testing.Short() {
		t.Skip("16K-rank profile setup allocates ~30MB; skipped under -short")
	}
	net := ityr.DefaultNet(8)
	small := retainedBytes(t, func() any { return profile.New(1024, net) }) / 1024
	big := retainedBytes(t, func() any { return profile.New(budgetRanks, net) }) / budgetRanks
	t.Logf("profile state: %.0f B/rank at 1K ranks, %.0f B/rank at %d ranks (budget %d)",
		small, big, budgetRanks, profileBudgetBytesPerRank)
	if big > profileBudgetBytesPerRank {
		t.Errorf("profile retains %.0f B/rank at 16K ranks, over the %d B/rank budget",
			big, profileBudgetBytesPerRank)
	}
	// Linearity: per-rank cost must not grow with the rank count (an
	// O(ranks²) matrix would make the 16K point ~16x the 1K point).
	if big > 2*small {
		t.Errorf("profile per-rank cost grew from %.0f B (1K ranks) to %.0f B (16K ranks) — superlinear state", small, big)
	}
	// Full runtime with profiling armed: inside the two budgets together.
	cfg := runtimeConfig(budgetRanks, 8, ityr.WriteBackLazy, 11)
	cfg.Profile = true
	perRank := retainedBytes(t, func() any { return ityr.NewRuntime(cfg) }) / budgetRanks
	const both = budgetBytesPerRank + profileBudgetBytesPerRank
	t.Logf("runtime+profile setup: %.0f B/rank (budget %d)", perRank, both)
	if perRank > both {
		t.Errorf("runtime with profiling retains %.0f B/rank, over the %d B/rank budget",
			perRank, both)
	}
}

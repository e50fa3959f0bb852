package bench

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"ityr"
	"ityr/internal/apps/cilksort"
	"ityr/internal/apps/halo"
	"ityr/internal/fault"
	"ityr/internal/pgas"
)

// cilkDigest runs the Fig. 7 cilksort configuration at Smoke's finest
// cutoff (cilksort.Run: generator seed 11, block-cyclic) under cfg with
// tracing on, and folds every kernel-visible observable into one printable
// digest: the final virtual clock, the measured sort time, the RMA traffic
// counters, the PGAS cache statistics, the scheduler statistics, the
// profiler breakdown, and the complete timestamped trace event stream. Any
// change to event ordering, to a single simulated timestamp, or to a single
// fence/cache decision changes the digest.
func cilkDigest(cfg ityr.Config) string {
	cfg.Trace = true
	res, rt := runCilksort(cfg, cilksort.Params{N: Smoke.CilksortN, Cutoff: Smoke.Cutoffs[0],
		Seed: 11, Dist: ityr.BlockCyclicDist})
	elapsed := res.SortTime
	h := fnv.New64a()
	fmt.Fprintf(h, "rma=%+v\n", rt.Comm().Stats())
	fmt.Fprintf(h, "pgas=%+v\n", rt.Space().Stats)
	// Batch stats join the digest only when nonzero, so digests of runs
	// with the batching knobs off stay comparable across versions that
	// predate the batching layer (the batching-off rows).
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

// cilk is a golden row's digest function: cilkDigest of the standard
// machine under pol, after edit (nil = none).
func cilk(pol ityr.Policy, edit func(*ityr.Config)) func(*testing.T) string {
	return func(*testing.T) string {
		cfg := runtimeConfig(Smoke.FixedRanks, Smoke.CoresPerNode, pol, 11)
		if edit != nil {
			edit(&cfg)
		}
		return cilkDigest(cfg)
	}
}

// lazy is cilk under the policy every non-policy row varies from.
func lazy(edit func(*ityr.Config)) func(*testing.T) string {
	return cilk(ityr.WriteBackLazy, edit)
}

func batchingOff(cfg *ityr.Config) { cfg.Pgas.CoalesceWriteBack = false }

// armed arms plan the way the fault suite does (faultConfig): victim
// blacklisting on — the scheduler-side half of the resilience story.
func armed(plan fault.Plan) func(*ityr.Config) {
	return func(cfg *ityr.Config) {
		cfg.Faults = &plan
		cfg.Sched.VictimBlacklist = true
	}
}

func haloDigest(cfg halo.Config) func(*testing.T) string {
	return func(t *testing.T) string {
		res, err := halo.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Digest()
	}
}

// profileHalo is the profile workload: a 16-rank ring on the three-tier
// rack topology (4 cores/node, 2 nodes/rack), so the communication matrix
// must attribute self, node, rack AND fabric traffic.
var profileHalo = halo.Config{Ranks: 16, CoresPerNode: 4, NodesPerRack: 2, CellsPerRank: 256, Steps: 15}

func withProfile(cfg halo.Config) halo.Config {
	cfg.Profile = true
	return cfg
}

// golden is the one digest table: every row is a configuration and either
// the digest it must produce (pin) or the row it must equal (same). A pin
// also pins determinism — the suite runs at least twice in `make check`,
// and every run must reproduce the string — under faults and corruption as
// on the clean path. test names the top-level test that checks the row, so
// `go test -run` and the CI fan-out can select a group.
//
// A pin is moved, never edited: a mismatch means the change altered
// simulated behaviour (a timestamp, an RMA counter, a trace event), not
// just host cost. To diff a kernel change against a pre-change run, run
// `go test -run 'Pinned|Matches|Inert|Determinis' -v` on both: every row
// logs its digest. The cilksort rows' fnv values were re-taken once, when
// uth.Stats lost its comm-wait counter (the sched= line folds the struct);
// elapsed, final and events did not move.
var golden = []struct {
	test, name string
	digest     func(*testing.T) string
	pin, same  string
}{
	// The fork-join path under each cache policy, captured on the commit
	// preceding the per-rank memory diet and the three-tier network model:
	// with the default two-tier topology the simulated schedule is
	// bit-identical to what the repo produced before.
	{test: "TestPinnedKernelDigests", name: "No Cache", digest: cilk(ityr.NoCache, nil),
		pin: "elapsed=1072872 final=1155212 events=13515 fnv=979d0ad8a1a988cf"},
	{test: "TestPinnedKernelDigests", name: "Write-Through", digest: cilk(ityr.WriteThrough, nil),
		pin: "elapsed=578327 final=661067 events=13769 fnv=173fe68bee91093d"},
	{test: "TestPinnedKernelDigests", name: "Write-Back", digest: cilk(ityr.WriteBack, nil),
		pin: "elapsed=590386 final=673126 events=13607 fnv=dfe2d13afa1ca552"},
	{test: "TestPinnedKernelDigests", name: "Write-Back (Lazy)", digest: lazy(nil),
		pin: "elapsed=597253 final=679993 events=13415 fnv=65f3bb73229ccd22"},

	// Write-back coalescing's zero-cost-when-off contract: with
	// CoalesceWriteBack off the runtime reproduces the digests of the tree
	// immediately before the batching layer was added. Only the lazy
	// policy's differs from its coalescing row.
	{test: "TestBatchingOffMatchesSeed", name: "batching-off/No Cache", digest: cilk(ityr.NoCache, batchingOff), same: "No Cache"},
	{test: "TestBatchingOffMatchesSeed", name: "batching-off/Write-Through", digest: cilk(ityr.WriteThrough, batchingOff), same: "Write-Through"},
	{test: "TestBatchingOffMatchesSeed", name: "batching-off/Write-Back", digest: cilk(ityr.WriteBack, batchingOff), same: "Write-Back"},
	{test: "TestBatchingOffMatchesSeed", name: "batching-off/Write-Back (Lazy)", digest: lazy(batchingOff),
		pin: "elapsed=597253 final=679993 events=13415 fnv=75bdd24e9f14637c"},

	// The field the benchmark module still sets is ignored.
	{test: "TestIgnoredConfigInert", name: "prefetch-blocks-ignored",
		digest: lazy(func(cfg *ityr.Config) { cfg.Pgas.PrefetchBlocks = 8 }), same: "Write-Back (Lazy)"},

	// The scheduler seam: selecting childfirst explicitly is the default.
	{test: "TestExplicitChildFirstMatchesPinned", name: "explicit-childfirst",
		digest: lazy(func(cfg *ityr.Config) { cfg.Sched.Policy = ityr.ChildFirst }), same: "Write-Back (Lazy)"},

	// Zero overhead when off, at the observable level: an injector with
	// nothing to inject, a zero-valued corruption config, and a protector
	// whose selection stream is never consumed must not move a single
	// virtual timestamp or event. Victim blacklisting stays off — it is a
	// scheduling feature that legitimately reroutes steals (healthy runs hit
	// the 20µs steal timeout too), not injector overhead.
	{test: "TestEmptyPlanMatchesNoPlan", name: "empty-plan",
		digest: lazy(func(cfg *ityr.Config) { cfg.Faults = &fault.Plan{Name: "empty", Seed: 11} }), same: "Write-Back (Lazy)"},
	{test: "TestSDCDisabledDigestInert", name: "empty-corruption-plan",
		digest: lazy(func(cfg *ityr.Config) {
			cfg.Faults = &fault.Plan{Name: "empty-corrupt", Seed: 11, Corrupt: fault.Corruption{}}
		}), same: "Write-Back (Lazy)"},
	{test: "TestSDCDisabledDigestInert", name: "replicate=0",
		digest: lazy(func(cfg *ityr.Config) { cfg.SDC = &ityr.SDCConfig{Replicate: 0} }), same: "Write-Back (Lazy)"},

	// Recording reads the clock and never advances it: the streaming
	// profile on is the profile off, fork-join and SPMD.
	{test: "TestProfileDigestInert", name: "profile-on",
		digest: lazy(func(cfg *ityr.Config) { cfg.Profile = true }), same: "Write-Back (Lazy)"},
	{test: "TestProfileDigestInert", name: "halo-racks-16r", digest: haloDigest(profileHalo),
		pin: "elapsed=179536 checksum=409ecd3722c20368 fnv=c7464d46827f9922"},
	{test: "TestProfileDigestInert", name: "halo-racks-16r/profile-on", digest: haloDigest(withProfile(profileHalo)), same: "halo-racks-16r"},

	// The same plan (same seed) replays bit for bit — every injected
	// failure, retry backoff, latency spike, straggler window and blacklist
	// decision. Captured on PR 21's commit (go test -v logged them).
	{test: "TestFaultDeterminismGolden", name: "link-degraded", digest: lazy(armed(fault.PlanLinkDegraded(11))),
		pin: "elapsed=824470 final=911786 events=13307 fnv=30d6217c85b4c0c0"},
	{test: "TestFaultDeterminismGolden", name: "flaky-rma", digest: lazy(armed(fault.PlanFlakyRMA(11))),
		pin: "elapsed=599706 final=688451 events=13462 fnv=64c1cf6b269e802a"},
	{test: "TestFaultDeterminismGolden", name: "straggler", digest: lazy(armed(fault.PlanStraggler(11))),
		pin: "elapsed=918610 final=1008010 events=13556 fnv=829ae37a43642e47"},
	// ... and so do a corruption plan's flips, detections and replica traffic.
	{test: "TestSDCCorruptionDeterministic", name: "sdc-task+replicate=0.5",
		digest: lazy(func(cfg *ityr.Config) {
			armed(fault.PlanSDC(11))(cfg)
			cfg.SDC = &ityr.SDCConfig{Replicate: 0.5}
		}),
		pin: "elapsed=992097 final=1074837 events=16440 fnv=06bc8933479029e5"},

	// The pure-SPMD path at two geometries, captured with the kernel pins.
	// A long, wide halo: 4,096 cells per rank for 50 steps (the geometry of
	// the host-speedup sweep PR 18 retired; kept as a pin).
	{test: "TestPinnedHaloDigests", name: "halo-32r-4096c",
		digest: haloDigest(halo.Config{Ranks: 32, CoresPerNode: 8, CellsPerRank: 4096, Steps: 50}),
		pin:    "elapsed=1089091 checksum=40ef4c5200201dca fnv=6d217bb135526c09"},
	// The fleet benchmark's per-member geometry (scaling.go).
	{test: "TestPinnedHaloDigests", name: "halo-fleet-member", digest: haloDigest(fleetConfig),
		pin: "elapsed=335701 checksum=40be660f44097649 fnv=1df8cbae82d9ef9b"},
}

// checkGolden checks the rows of the golden table that name the calling
// test.
func checkGolden(t *testing.T) {
	rows := 0
	for _, row := range golden {
		if row.test != t.Name() {
			continue
		}
		rows++
		got, want := row.digest(t), row.pin
		if row.same != "" {
			for _, ref := range golden {
				if ref.name == row.same {
					want = ref.digest(t)
				}
			}
		}
		t.Logf("%-32s %s", row.name, got)
		switch {
		case want == "":
			t.Errorf("%s: row has neither a pin nor a row %q to equal", row.name, row.same)
		case got != want && row.same != "":
			t.Errorf("%s differs from row %q:\n  %-12s %s\n  %-12s %s", row.name, row.same, row.same+":", want, "got:", got)
		case got != want:
			t.Errorf("%s diverged from its pin — simulated behaviour changed:\n  pinned: %s\n  got:    %s", row.name, want, got)
		}
	}
	if rows == 0 {
		t.Fatalf("no golden row names %s", t.Name())
	}
}

func TestPinnedKernelDigests(t *testing.T)             { checkGolden(t) }
func TestBatchingOffMatchesSeed(t *testing.T)          { checkGolden(t) }
func TestExplicitChildFirstMatchesPinned(t *testing.T) { checkGolden(t) }
func TestIgnoredConfigInert(t *testing.T)              { checkGolden(t) }
func TestEmptyPlanMatchesNoPlan(t *testing.T)          { checkGolden(t) }
func TestSDCDisabledDigestInert(t *testing.T)          { checkGolden(t) }
func TestProfileDigestInert(t *testing.T)              { checkGolden(t) }
func TestFaultDeterminismGolden(t *testing.T)          { checkGolden(t) }
func TestSDCCorruptionDeterministic(t *testing.T)      { checkGolden(t) }
func TestPinnedHaloDigests(t *testing.T)               { checkGolden(t) }

package bench

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"testing"

	"ityr"
	"ityr/internal/apps/cilksort"
	"ityr/internal/apps/halo"
	"ityr/internal/fault"
	"ityr/internal/pgas"
	"ityr/internal/trace"
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
	// Batch stats join the digest only when nonzero, which keeps the pins
	// taken before the batching layer existed valid for runs that merge
	// nothing.
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

// sched selects the scheduling policy.
func sched(p ityr.SchedPolicy) func(*ityr.Config) {
	return func(cfg *ityr.Config) { cfg.Sched.Policy = p }
}

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

// profileHalo is the profile workload: a 16-rank ring on 4-core nodes, so
// the communication matrix must attribute both node and fabric traffic.
var profileHalo = halo.Config{Ranks: 16, CoresPerNode: 4, CellsPerRank: 256, Steps: 15}

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
// elapsed, final and events did not move. Every cilksort row was re-taken
// once more when the steal-victim draw became a splitmix stream: a new
// victim sequence is a new schedule. The halo rows never draw a victim and
// did not move. The Write-Back, Write-Back (Lazy), link-degraded and
// straggler rows were re-taken when a stolen child stopped counting as done
// before its Release #2 completed: a Join in that window now waits. Every
// cilksort row's fnv was re-taken once more when the trace stream took its
// canonical order (trace.Log.Events): same-instant events of different
// ranks now sort by rank, not by the host's recording order; elapsed, final
// and events did not move.
var golden = []struct {
	test, name string
	digest     func(*testing.T) string
	pin, same  string
}{
	// The fork-join path under each cache policy, on the default two-tier
	// topology.
	{test: "TestPinnedKernelDigests", name: "No Cache", digest: cilk(ityr.NoCache, nil),
		pin: "elapsed=1052036 final=1134376 events=13525 fnv=02616e0a23fbdb5c"},
	{test: "TestPinnedKernelDigests", name: "Write-Through", digest: cilk(ityr.WriteThrough, nil),
		pin: "elapsed=603787 final=686527 events=13877 fnv=dce6ab4fd4b567af"},
	{test: "TestPinnedKernelDigests", name: "Write-Back", digest: cilk(ityr.WriteBack, nil),
		pin: "elapsed=584862 final=667602 events=13616 fnv=123f57718c9c7df6"},
	{test: "TestPinnedKernelDigests", name: "Write-Back (Lazy)", digest: lazy(nil),
		pin: "elapsed=671609 final=754349 events=13631 fnv=1ad1d4c622fda67d"},

	// The same fork-join path under the two alternative schedulers, with
	// and without a cache: these pin what Fork publishes (a pending child)
	// and where a join waiter resumes (migrated here, or in place under
	// FBC).
	{test: "TestPinnedPolicyDigests", name: "helpfirst/No Cache", digest: cilk(ityr.NoCache, sched(ityr.HelpFirst)),
		pin: "elapsed=1035837 final=1118177 events=15176 fnv=c5ca34f12110520d"},
	{test: "TestPinnedPolicyDigests", name: "helpfirst/Write-Back (Lazy)", digest: lazy(sched(ityr.HelpFirst)),
		pin: "elapsed=615917 final=698657 events=15576 fnv=175d18840015db13"},
	{test: "TestPinnedPolicyDigests", name: "fbc/No Cache", digest: cilk(ityr.NoCache, sched(ityr.FBC)),
		pin: "elapsed=1093711 final=1176051 events=15424 fnv=dab6eeb1d7524c8d"},
	{test: "TestPinnedPolicyDigests", name: "fbc/Write-Back (Lazy)", digest: lazy(sched(ityr.FBC)),
		pin: "elapsed=738896 final=821636 events=15727 fnv=bf95e4de7579e479"},

	// The fields the benchmark module still sets are ignored.
	{test: "TestIgnoredConfigInert", name: "prefetch-blocks-ignored",
		digest: lazy(func(cfg *ityr.Config) { cfg.Pgas.PrefetchBlocks = 8 }), same: "Write-Back (Lazy)"},
	{test: "TestIgnoredConfigInert", name: "coalesce-writeback-ignored",
		digest: lazy(func(cfg *ityr.Config) { cfg.Pgas.CoalesceWriteBack = false }), same: "Write-Back (Lazy)"},

	// The scheduler seam: selecting childfirst explicitly is the default.
	{test: "TestExplicitChildFirstMatchesPinned", name: "explicit-childfirst",
		digest: lazy(sched(ityr.ChildFirst)), same: "Write-Back (Lazy)"},

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
	{test: "TestProfileDigestInert", name: "halo-16r-4c", digest: haloDigest(profileHalo),
		pin: "elapsed=179536 checksum=409ecd3722c20368 fnv=c7464d46827f9922"},
	{test: "TestProfileDigestInert", name: "halo-16r-4c/profile-on", digest: haloDigest(withProfile(profileHalo)), same: "halo-16r-4c"},

	// The same plan (same seed) replays bit for bit — every injected
	// failure, retry backoff, latency spike, straggler window and blacklist
	// decision.
	{test: "TestFaultDeterminismGolden", name: "link-degraded", digest: lazy(armed(fault.PlanLinkDegraded(11))),
		pin: "elapsed=1042084 final=1129991 events=13376 fnv=f0e3e80e38009b15"},
	{test: "TestFaultDeterminismGolden", name: "flaky-rma", digest: lazy(armed(fault.PlanFlakyRMA(11))),
		pin: "elapsed=610213 final=698648 events=13464 fnv=5c12a7cd63c890f4"},
	{test: "TestFaultDeterminismGolden", name: "straggler", digest: lazy(armed(fault.PlanStraggler(11))),
		pin: "elapsed=845116 final=954116 events=13718 fnv=5315c71bb7d265fa"},
	// ... and so do a corruption plan's flips, detections and replica traffic.
	{test: "TestSDCCorruptionDeterministic", name: "sdc-task+replicate=0.5",
		digest: lazy(func(cfg *ityr.Config) {
			armed(fault.PlanSDC(11))(cfg)
			cfg.SDC = &ityr.SDCConfig{Replicate: 0.5}
		}),
		pin: "elapsed=974383 final=1057123 events=16421 fnv=b604b2169d1854d9"},

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

// TestTraceOrderCanonical holds the fork-join path's traces under each
// cache policy to trace.Log.Events' canonical order, end instant then rank,
// and checks that the order only interleaves the ranks: the events are
// every rank's records, each rank's in the order it recorded them. The
// host's recording order, which the log kept before, differs from this one
// only in how same-instant events of different ranks interleave.
func TestTraceOrderCanonical(t *testing.T) {
	for _, pol := range []ityr.Policy{ityr.NoCache, ityr.WriteThrough, ityr.WriteBack, ityr.WriteBackLazy} {
		cfg := runtimeConfig(Smoke.FixedRanks, Smoke.CoresPerNode, pol, 11)
		cfg.Trace = true
		_, rt := runCilksort(cfg, cilksort.Params{N: Smoke.CilksortN, Cutoff: Smoke.Cutoffs[0],
			Seed: 11, Dist: ityr.BlockCyclicDist})
		log := rt.Trace()
		evs := log.Events()
		byRank := make([][]trace.Event, Smoke.FixedRanks)
		for i, e := range evs {
			if i > 0 {
				p := evs[i-1]
				if pe, ee := p.T+p.Dur, e.T+e.Dur; pe > ee || pe == ee && p.Rank > e.Rank {
					t.Fatalf("%v: event %d %+v sorts before event %d %+v", pol, i, e, i-1, p)
				}
			}
			byRank[e.Rank] = append(byRank[e.Rank], e)
		}
		for r, got := range byRank {
			if want := log.RankEvents(r); !slices.Equal(got, want) {
				t.Errorf("%v: rank %d's %d events are not the %d it recorded, in order", pol, r, len(got), len(want))
			}
		}
		if len(evs) == 0 {
			t.Fatalf("%v: empty trace", pol)
		}
	}
}

func TestPinnedKernelDigests(t *testing.T)             { checkGolden(t) }
func TestPinnedPolicyDigests(t *testing.T)             { checkGolden(t) }
func TestExplicitChildFirstMatchesPinned(t *testing.T) { checkGolden(t) }
func TestIgnoredConfigInert(t *testing.T)              { checkGolden(t) }
func TestEmptyPlanMatchesNoPlan(t *testing.T)          { checkGolden(t) }
func TestSDCDisabledDigestInert(t *testing.T)          { checkGolden(t) }
func TestProfileDigestInert(t *testing.T)              { checkGolden(t) }
func TestFaultDeterminismGolden(t *testing.T)          { checkGolden(t) }
func TestSDCCorruptionDeterministic(t *testing.T)      { checkGolden(t) }
func TestPinnedHaloDigests(t *testing.T)               { checkGolden(t) }

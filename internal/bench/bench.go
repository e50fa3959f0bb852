// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation (§6) and per gated suite, behind one dispatch
// table (Suites). Every runner returns the one Report; a figure's runner
// prints the rows/series the paper reports from it, and scores what the
// paper claims about them as 0/1 verdicts on its claim/<figure> row. The
// table is walked by cmd/itybench, by the root BenchmarkSuite, and — through
// the checked-in BENCH_<suite>.json reports — by internal/tools/perfgate and
// EXPERIMENTS.md.
package bench

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"ityr"
	"ityr/internal/apps/cilksort"
	"ityr/internal/apps/fmm"
	"ityr/internal/apps/uts"
	"ityr/internal/sim"
)

// Scale selects experiment sizes. Full approximates the paper's regimes
// scaled to this simulator; Quick is for `go test -bench`; Smoke for unit
// tests of the harness itself.
type Scale struct {
	Name string

	CilksortN    int64
	CilksortBigN int64
	Cutoffs      []int64
	SortCutoff   int64 // cutoff for the scaling study (16K in the paper)

	UTSSmall uts.Tree
	UTSBig   uts.Tree

	FMMSmallN int
	FMMBigN   int
	FMMTheta  float64
	FMMNSpawn int

	Ranks        []int // rank counts for scaling studies
	FixedRanks   int   // rank count for the cutoff study (Fig. 7)
	CoresPerNode int
	MPINodes     []int // node counts for Table 2

	// Task Bench matrix (the taskbench suite): tasks per step × steps,
	// the per-cell payload each dependency edge moves, and the
	// fine/coarse task-grain pair the suite sweeps.
	TBWidth, TBSteps           int
	TBEdgeBytes                int
	TBFineGrain, TBCoarseGrain sim.Time

	// The scaling suite: the rank count its sweep stops at, and how many
	// independent simulations its fleet runs.
	ScalingMaxRanks, FleetSims int
}

// Smoke is a tiny scale for harness unit tests.
var Smoke = Scale{
	Name:         "smoke",
	CilksortN:    1 << 14,
	CilksortBigN: 1 << 15,
	Cutoffs:      []int64{256, 1024},
	SortCutoff:   1024,
	UTSSmall:     uts.Tree{Name: "S", Seed: 5, RootKids: 60, MeanKids: 0.9, MaxDepth: 100},
	UTSBig:       uts.Tree{Name: "B", Seed: 5, RootKids: 200, MeanKids: 0.9, MaxDepth: 100},
	FMMSmallN:    600,
	FMMBigN:      1200,
	FMMTheta:     0.4,
	FMMNSpawn:    64,
	Ranks:        []int{4, 8},
	FixedRanks:   8,
	CoresPerNode: 4,
	MPINodes:     []int{1, 2, 4},

	TBWidth: 48, TBSteps: 6, TBEdgeBytes: 256,
	TBFineGrain: 1 * sim.Microsecond, TBCoarseGrain: 20 * sim.Microsecond,

	ScalingMaxRanks: 1728, FleetSims: 16, // 1,728: the paper's machine
}

// Quick is the scale of `go test -bench` and of BENCH_figures.json.
var Quick = Scale{
	Name:         "quick",
	CilksortN:    1 << 18,
	CilksortBigN: 1 << 20,
	Cutoffs:      []int64{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10},
	SortCutoff:   16 << 10,
	UTSSmall:     uts.Tree{Name: "T1S'", Seed: 19, RootKids: 300, MeanKids: 0.99, MaxDepth: 500},
	UTSBig:       uts.T1LPrime,
	FMMSmallN:    3000,
	FMMBigN:      10000,
	FMMTheta:     0.3,
	FMMNSpawn:    256,
	Ranks:        []int{4, 8, 16, 32},
	FixedRanks:   16,
	CoresPerNode: 8,
	MPINodes:     []int{1, 2, 4, 8},

	TBWidth: 128, TBSteps: 10, TBEdgeBytes: 1024,
	TBFineGrain: 1 * sim.Microsecond, TBCoarseGrain: 50 * sim.Microsecond,

	ScalingMaxRanks: 4096, FleetSims: 32,
}

// Full is the paper-regime scale, cmd/itybench's default.
var Full = Scale{
	Name:         "full",
	CilksortN:    1 << 20, // "1G elements" analogue
	CilksortBigN: 1 << 23, // "10G elements" analogue
	Cutoffs:      []int64{64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10},
	SortCutoff:   16 << 10,
	UTSSmall:     uts.T1LPrime,  // "T1L" analogue
	UTSBig:       uts.T1XLPrime, // "T1XL" analogue
	FMMSmallN:    10000,         // "1M bodies" analogue
	FMMBigN:      50000,         // "10M bodies" analogue
	FMMTheta:     0.25,          // paper: 0.2; slightly relaxed for tractable P2P volume
	FMMNSpawn:    500,
	Ranks:        []int{4, 8, 16, 32, 64},
	FixedRanks:   32,
	CoresPerNode: 8,
	MPINodes:     []int{1, 2, 4, 8, 16},

	TBWidth: 256, TBSteps: 16, TBEdgeBytes: 4096,
	TBFineGrain: 1 * sim.Microsecond, TBCoarseGrain: 100 * sim.Microsecond,

	ScalingMaxRanks: 16384, FleetSims: 64,
}

// Scales are the scales `itybench -scale` accepts.
var Scales = []Scale{Smoke, Quick, Full}

// runtimeConfig assembles the paper-like machine configuration (Table 1,
// scaled): 64 KiB blocks, 4 KiB sub-blocks, 16 MiB private cache per
// process, block-cyclic collective distribution (chosen by the apps) and
// the child-first scheduler.
func runtimeConfig(ranks, coresPerNode int, pol ityr.Policy, seed int64) ityr.Config {
	return ityr.Config{
		Ranks:        ranks,
		CoresPerNode: coresPerNode,
		Pgas: ityr.PgasConfig{
			BlockSize:    64 << 10,
			SubBlockSize: 4 << 10,
			CacheSize:    16 << 20,
			Policy:       pol,
		},
		Seed: seed,
	}
}

// ms renders virtual nanoseconds as milliseconds.
func ms(t sim.Time) float64 { return float64(t) / 1e6 }

// run is the one way an experiment runs an application: build the runtime
// from cfg, attach the heartbeat under label for the run's duration, and
// hand the runtime to the app's Run. The runtime comes back for stats.
func run[P, R any](label string, cfg ityr.Config, app func(*ityr.Runtime, P) (R, error), p P) (R, *ityr.Runtime) {
	rt := ityr.NewRuntime(cfg)
	defer watchEngine(label, cfg.Ranks, rt.Engine())()
	res, err := app(rt, p)
	if err != nil {
		panic(err)
	}
	return res, rt
}

// runCilksort, runUTS and runFMM are run for each app, under the label its
// heartbeat lines carry.
func runCilksort(cfg ityr.Config, p cilksort.Params) (cilksort.Result, *ityr.Runtime) {
	return run(fmt.Sprintf("cilksort n=%d", p.N), cfg, cilksort.Run, p)
}

func runUTS(cfg ityr.Config, tree uts.Tree) (uts.Result, *ityr.Runtime) {
	return run("utsmem "+tree.Name, cfg, uts.Run, uts.Params{Tree: tree})
}

func runFMM(cfg ityr.Config, p fmm.Params) (fmm.Result, *ityr.Runtime) {
	return run(fmt.Sprintf("fmm n=%d", p.N), cfg, fmm.Run, p)
}

// figCilksort is the figures' Cilksort: block-cyclic arrays, generated
// from the runtime's seed.
func figCilksort(n, cutoff int64, ranks, coresPerNode int, pol ityr.Policy, seed int64) (sim.Time, *ityr.Runtime) {
	res, rt := runCilksort(runtimeConfig(ranks, coresPerNode, pol, seed),
		cilksort.Params{N: n, Cutoff: cutoff, Seed: uint64(seed), Dist: ityr.BlockCyclicDist})
	return res.SortTime, rt
}

// fig7 regenerates Figure 7: Cilksort execution time across task cutoffs
// for the four cache policies on a fixed rank count. Rows
// fig7/<policy>/<cutoff>.
func fig7(w io.Writer, rep *Report, sc Scale) {
	fmt.Fprintf(w, "\n== Figure 7: Cilksort (%d elements) vs cutoff on %d ranks (%d/node) ==\n",
		sc.CilksortN, sc.FixedRanks, sc.CoresPerNode)
	fmt.Fprintf(w, "%-20s %10s %14s\n", "policy", "cutoff", "time (ms)")
	for _, pol := range ityr.Policies {
		for _, cutoff := range sc.Cutoffs {
			m := rep.row(rowName("fig7", pol, cutoff), func() Metrics {
				t, _ := figCilksort(sc.CilksortN, cutoff, sc.FixedRanks, sc.CoresPerNode, pol, 11)
				return Metrics{"sim_ns": float64(t)}
			})
			fmt.Fprintf(w, "%-20s %10d %14.3f\n", pol, cutoff, m.ms())
		}
	}
}

// fig7Claims: the more the write-back is delayed the better at fine grain
// (No Cache > Write-Through > Write-Back > Lazy at the finest cutoff, and
// its weaker half, No Cache the slowest there); a U-shape whose minimum is
// the paper's 16K cutoff, strictly inside the sweep, for every policy; and
// Lazy the most robust to fine grain (the smallest finest ÷ best ratio).
func fig7Claims(rep *Report, sc Scale) Metrics {
	t := func(pol ityr.Policy, cutoff int64) float64 { return rep.at("sim_ns", "fig7", pol, cutoff) }
	fine, last := sc.Cutoffs[0], sc.Cutoffs[len(sc.Cutoffs)-1]
	penalty := func(pol ityr.Policy) (best int64, ratio float64) {
		best = slices.MinFunc(sc.Cutoffs, func(a, b int64) int { return cmp.Compare(t(pol, a), t(pol, b)) })
		return best, t(pol, fine) / t(pol, best)
	}
	_, lazy := penalty(ityr.WriteBackLazy)
	order, slowest, uShape, robust := true, true, true, true
	for i, pol := range ityr.Policies {
		if i > 0 {
			order = order && t(ityr.Policies[i-1], fine) > t(pol, fine)
			slowest = slowest && t(ityr.NoCache, fine) > t(pol, fine)
		}
		best, ratio := penalty(pol)
		uShape = uShape && best == 16<<10 && best != fine && best != last
		robust = robust && lazy <= ratio
	}
	return Metrics{
		"policy_order_at_finest_cutoff":    verdict(order),
		"nocache_slowest_at_finest_cutoff": verdict(slowest),
		"u_shape_min_at_16k":               verdict(uShape),
		"lazy_most_robust":                 verdict(robust),
	}
}

// fig8Policies are the two configurations Figs. 8 and 10 compare.
var fig8Policies = []ityr.Policy{ityr.NoCache, ityr.WriteBackLazy}

// fig9Cats are Fig. 9's categories in the paper's order, with the metric
// each is stored under on a Fig. 8 lazy row. "Others" is not among them: it
// is what the named categories leave of elapsed × ranks (fig9Others).
var fig9Cats = []struct{ name, metric string }{
	{ityr.CatGet, "get_ns"}, {"Checkout", "checkout_ns"}, {"Checkin", "checkin_ns"},
	{"Release", "release_ns"}, {"Lazy Release", "lazy_release_ns"}, {"Acquire", "acquire_ns"},
	{ityr.CatMerge, "merge_ns"}, {ityr.CatQuicksort, "quicksort_ns"},
}

// fig8Row is one run of Figs. 8 and 9 — seed 13 at the scaling cutoff — as
// the row fig8/<n>/<policy>/<ranks>: time, speedup over the modelled serial
// execution and, under the lazy policy, the time every rank accumulated per
// category, which is Fig. 9.
func fig8Row(rep *Report, sc Scale, n int64, pol ityr.Policy, ranks int) Metrics {
	return rep.row(rowName("fig8", n, pol, ranks), func() Metrics {
		t, rt := figCilksort(n, sc.SortCutoff, ranks, sc.CoresPerNode, pol, 13)
		m := Metrics{"sim_ns": float64(t), "speedup": float64(ityr.SortSerialTime(n)) / float64(t)}
		if pol == ityr.WriteBackLazy {
			for _, c := range fig9Cats {
				m[c.metric] = float64(rt.Profiler().Total(c.name))
			}
		}
		return m
	})
}

// fig8 regenerates Figure 8: Cilksort strong scaling for two input sizes,
// No Cache vs Write-Back (Lazy).
func fig8(w io.Writer, rep *Report, sc Scale) {
	fmt.Fprintf(w, "\n== Figure 8: Cilksort strong scaling (cutoff %d) ==\n", sc.SortCutoff)
	fmt.Fprintf(w, "%-10s %-20s %7s %12s %10s\n", "size", "policy", "ranks", "time (ms)", "speedup")
	for _, n := range []int64{sc.CilksortN, sc.CilksortBigN} {
		serial := rep.row(rowName("fig8", n, "serial"), func() Metrics {
			return Metrics{"sim_ns": float64(ityr.SortSerialTime(n))}
		})
		fmt.Fprintf(w, "%-10d %-20s %7d %12.3f %10s\n", n, "(serial model)", 1, serial.ms(), "1.0")
		for _, pol := range fig8Policies {
			for _, ranks := range sc.Ranks {
				m := fig8Row(rep, sc, n, pol, ranks)
				fmt.Fprintf(w, "%-10d %-20s %7d %12.3f %10.1f\n", n, pol, ranks, m.ms(), m["speedup"])
			}
		}
	}
}

// fig8Claims: the larger input scales better (a higher speedup at the top
// rank count under both policies) and does speed up with ranks at all; and
// caching gains more on the larger input (Lazy's time advantage over No
// Cache at the top rank count, as a fraction of No Cache's time).
func fig8Claims(rep *Report, sc Scale) Metrics {
	lo, top := sc.Ranks[0], sc.Ranks[len(sc.Ranks)-1]
	small, big := sc.CilksortN, sc.CilksortBigN
	gain := func(n int64) float64 {
		return 1 - rep.at("sim_ns", "fig8", n, ityr.WriteBackLazy, top)/rep.at("sim_ns", "fig8", n, ityr.NoCache, top)
	}
	scalesBetter := true
	for _, pol := range fig8Policies {
		scalesBetter = scalesBetter && rep.at("speedup", "fig8", big, pol, top) > rep.at("speedup", "fig8", small, pol, top)
	}
	return Metrics{
		"larger_input_scales_better": verdict(scalesBetter),
		"larger_input_speeds_up_with_ranks": verdict(
			rep.at("sim_ns", "fig8", big, ityr.WriteBackLazy, top) < rep.at("sim_ns", "fig8", big, ityr.WriteBackLazy, lo)),
		"cache_gain_larger_on_larger_input": verdict(gain(big) > gain(small)),
	}
}

// fig9Others is what the named categories leave of a lazy run's accumulated
// time, elapsed × ranks — negative, not clamped, if more time was attributed
// than elapsed.
func fig9Others(m Metrics, ranks int) float64 {
	others := m["sim_ns"] * float64(ranks)
	for _, c := range fig9Cats {
		others -= m[c.metric]
	}
	return others
}

// fig9 regenerates Figure 9: the per-category breakdown of the Write-Back
// (Lazy) Cilksort runs of Fig. 8 (its rows; run alone it makes just those),
// as shares of each run's accumulated time.
func fig9(w io.Writer, rep *Report, sc Scale) {
	fmt.Fprintf(w, "\n== Figure 9: Cilksort Write-Back (Lazy) breakdown ==\n")
	for _, n := range []int64{sc.CilksortN, sc.CilksortBigN} {
		for _, ranks := range sc.Ranks {
			m := fig8Row(rep, sc, n, ityr.WriteBackLazy, ranks)
			fmt.Fprintf(w, "-- %d elements, %d ranks (total %0.3f ms x %d ranks) --\n", n, ranks, m.ms(), ranks)
			line := func(cat string, ns float64) {
				fmt.Fprintf(w, "   %-18s %10.3f ms  %5.1f%%\n", cat, ns/1e6, 100*ns/(m["sim_ns"]*float64(ranks)))
			}
			for _, c := range fig9Cats {
				line(c.name, m[c.metric])
			}
			line("Others", fig9Others(m, ranks))
		}
	}
}

// fig9Claims: the accumulated serial time (merge + quicksort) is the same at
// every rank count — exactly: the tolerance is zero, the leaves' charges are
// analytic — while "Others" (idle and scheduling) takes over faster on the
// small input (its share of accumulated time rises by more points from the
// lowest to the highest rank count); and no run attributes more time to its
// categories than elapsed × ranks holds.
func fig9Claims(rep *Report, sc Scale) Metrics {
	lo, top := sc.Ranks[0], sc.Ranks[len(sc.Ranks)-1]
	row := func(n int64, ranks int) Metrics { return rep.Rows[rowName("fig8", n, ityr.WriteBackLazy, ranks)] }
	serial := func(m Metrics) float64 { return m["merge_ns"] + m["quicksort_ns"] }
	rise := func(n int64) float64 {
		share := func(ranks int) float64 {
			return fig9Others(row(n, ranks), ranks) / (row(n, ranks)["sim_ns"] * float64(ranks))
		}
		return share(top) - share(lo)
	}
	constant, within := true, true
	for _, n := range []int64{sc.CilksortN, sc.CilksortBigN} {
		for _, ranks := range sc.Ranks {
			constant = constant && serial(row(n, ranks)) == serial(row(n, lo))
			within = within && fig9Others(row(n, ranks), ranks) >= 0
		}
	}
	return Metrics{
		"serial_time_constant":               verdict(constant),
		"others_grows_faster_on_small_input": verdict(rise(sc.CilksortN) > rise(sc.CilksortBigN)),
		"attribution_within_elapsed":         verdict(within),
	}
}

// fig10 regenerates Figure 10: UTS-Mem traversal throughput (nodes/s) for
// the two trees, Cache (Write-Back, Lazy) vs No Cache, strong scaling. Rows
// fig10/<tree>/<policy>/<ranks>.
func fig10(w io.Writer, rep *Report, sc Scale) {
	fmt.Fprintf(w, "\n== Figure 10: UTS-Mem traversal throughput ==\n")
	fmt.Fprintf(w, "%-8s %-20s %7s %12s %16s\n", "tree", "policy", "ranks", "time (ms)", "nodes/s")
	for _, tree := range []uts.Tree{sc.UTSSmall, sc.UTSBig} {
		for _, pol := range fig8Policies {
			for _, ranks := range sc.Ranks {
				m := rep.row(rowName("fig10", tree.Name, pol, ranks), func() Metrics {
					res, _ := runUTS(runtimeConfig(ranks, sc.CoresPerNode, pol, 17), tree)
					return Metrics{"sim_ns": float64(res.TraverseTime),
						"nodes_per_sec": float64(res.Counted) / (float64(res.TraverseTime) / 1e9)}
				})
				fmt.Fprintf(w, "%-8s %-20s %7d %12.3f %16.0f\n", tree.Name, pol, ranks, m.ms(), m["nodes_per_sec"])
			}
		}
	}
}

// fig10Claims: caching wins in every cell; its gain (cached ÷ no-cache
// throughput) is larger at the highest rank count than at the lowest, on
// both trees; and on the larger tree no-cache flattens — over the last step
// of the rank sweep its throughput grows by a smaller factor than the
// cached version's.
func fig10Claims(rep *Report, sc Scale) Metrics {
	tput := func(tree uts.Tree, pol ityr.Policy, ranks int) float64 {
		return rep.at("nodes_per_sec", "fig10", tree.Name, pol, ranks)
	}
	n := len(sc.Ranks)
	lo, prev, top := sc.Ranks[0], sc.Ranks[n-2], sc.Ranks[n-1]
	wins, grows := true, true
	for _, tree := range []uts.Tree{sc.UTSSmall, sc.UTSBig} {
		gain := func(ranks int) float64 {
			return tput(tree, ityr.WriteBackLazy, ranks) / tput(tree, ityr.NoCache, ranks)
		}
		for _, ranks := range sc.Ranks {
			wins = wins && gain(ranks) > 1
		}
		grows = grows && gain(top) > gain(lo)
	}
	step := func(pol ityr.Policy) float64 { return tput(sc.UTSBig, pol, top) / tput(sc.UTSBig, pol, prev) }
	return Metrics{
		"cache_wins_every_cell":       verdict(wins),
		"cache_gain_grows_with_ranks": verdict(grows),
		"nocache_flattens":            verdict(step(ityr.NoCache) < step(ityr.WriteBackLazy)),
	}
}

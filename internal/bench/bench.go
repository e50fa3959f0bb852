// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation (§6), each printing the same rows/series the
// paper reports and returning them for programmatic checks. The runners
// are shared by cmd/itybench (full-scale reproduction, EXPERIMENTS.md) and
// the root bench_test.go (reduced-scale regeneration under `go test
// -bench`).
package bench

import (
	"fmt"
	"io"

	"ityr"
	"ityr/internal/apps/cilksort"
	"ityr/internal/apps/fmm"
	"ityr/internal/apps/uts"
	"ityr/internal/netmodel"
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

// Quick is the scale used by `go test -bench`.
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

// Full is the paper-regime scale used by cmd/itybench for EXPERIMENTS.md.
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

// Row is one measured data point.
type Row struct {
	Fig      string
	Workload string
	Policy   string
	Ranks    int
	Param    int64 // cutoff / node count / tree size, by figure
	Time     sim.Time
	Value    float64 // figure-specific metric (speedup, nodes/s, idleness...)
}

// cacheCoalesce / cachePrefetch are the cache communication-batching knobs
// every experiment runtime uses (cmd/itybench's -coalesce / -prefetch
// flags). Batching is on by default: the headline experiments report the
// batched cache, and AblationBatching quantifies each knob's contribution.
var (
	cacheCoalesce = true
	cachePrefetch = 2
)

// SetCacheBatching sets the write-back-coalescing and prefetch-depth knobs
// for subsequent experiment runs. Negative depths are clamped to 0 (off).
func SetCacheBatching(coalesce bool, prefetch int) {
	if prefetch < 0 {
		prefetch = 0
	}
	cacheCoalesce = coalesce
	cachePrefetch = prefetch
}

// schedPolicy is the scheduling-policy knob (the CLIs' shared -sched
// flag): the discipline every subsequent experiment runtime uses. The
// default is the paper's child-first policy, which keeps every golden
// digest valid. The taskbench suite ignores it — it always sweeps the
// full policy matrix.
var schedPolicy = ityr.ChildFirst

// SetSchedPolicy sets the scheduling policy for subsequent experiment
// runs.
func SetSchedPolicy(p ityr.SchedPolicy) { schedPolicy = p }

// racksNodes is the rack-topology knob (cmd/itybench's -racks flag):
// nodes per rack for the three-tier network model. 0 — the default —
// keeps the flat two-tier fabric, so existing experiment outputs are
// untouched unless the flag is given.
var racksNodes = 0

// SetRacks selects the three-tier rack topology (netmodel.RackDefault)
// for subsequent experiment runs: nodesPerRack nodes share a rack tier
// between intra-node and fabric. Values below 1 restore the flat fabric.
func SetRacks(nodesPerRack int) {
	if nodesPerRack < 0 {
		nodesPerRack = 0
	}
	racksNodes = nodesPerRack
}

// runtimeConfig assembles the paper-like machine configuration (Table 1,
// scaled): 64 KiB blocks, 4 KiB sub-blocks, 16 MiB private cache per
// process, block-cyclic collective distribution (chosen by the apps), with
// the communication-batching knobs applied.
func runtimeConfig(ranks, coresPerNode int, pol ityr.Policy, seed int64) ityr.Config {
	cfg := ityr.Config{
		Ranks:        ranks,
		CoresPerNode: coresPerNode,
		Pgas: ityr.PgasConfig{
			BlockSize:         64 << 10,
			SubBlockSize:      4 << 10,
			CacheSize:         16 << 20,
			Policy:            pol,
			CoalesceWriteBack: cacheCoalesce,
			PrefetchBlocks:    cachePrefetch,
		},
		Sched: ityr.SchedConfig{Policy: schedPolicy},
		Seed:  seed,
	}
	if racksNodes > 0 {
		net := netmodel.RackDefault(coresPerNode, racksNodes)
		cfg.Net = &net
	}
	return cfg
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

// MetricsRun runs the canonical Fig. 7 cilksort configuration (the lazy
// write-back policy on the scale's fixed rank count) and writes the
// run's "itoyori-metrics/v1" snapshot — the machine-readable runtime
// counters the app CLIs' -metrics flag writes.
func MetricsRun(w io.Writer, sc Scale) error {
	_, rt := figCilksort(sc.CilksortN, sc.SortCutoff, sc.FixedRanks, sc.CoresPerNode, ityr.WriteBackLazy, 11)
	return rt.WriteMetrics(w)
}

// Fig7 regenerates Figure 7: Cilksort execution time across task cutoffs
// for the four cache policies on a fixed rank count.
func Fig7(w io.Writer, sc Scale) []Row {
	fmt.Fprintf(w, "\n== Figure 7: Cilksort (%d elements) vs cutoff on %d ranks (%d/node) ==\n",
		sc.CilksortN, sc.FixedRanks, sc.CoresPerNode)
	fmt.Fprintf(w, "%-20s %10s %14s\n", "policy", "cutoff", "time (ms)")
	var rows []Row
	for _, pol := range ityr.Policies {
		for _, cutoff := range sc.Cutoffs {
			t, _ := figCilksort(sc.CilksortN, cutoff, sc.FixedRanks, sc.CoresPerNode, pol, 11)
			fmt.Fprintf(w, "%-20s %10d %14.3f\n", pol, cutoff, ms(t))
			rows = append(rows, Row{Fig: "7", Workload: "cilksort", Policy: pol.String(),
				Ranks: sc.FixedRanks, Param: cutoff, Time: t})
		}
	}
	return rows
}

// Fig8Run is what Figs. 8 and 9 keep of one run: its size, rank count, sort
// time and per-category breakdown.
type Fig8Run struct {
	N         int64
	Ranks     int
	Time      sim.Time
	Breakdown map[string]sim.Time
}

// fig8Run is one run of Figs. 8 and 9: seed 13 at the scaling cutoff.
func runFig8(sc Scale, n int64, ranks int, pol ityr.Policy) Fig8Run {
	t, rt := figCilksort(n, sc.SortCutoff, ranks, sc.CoresPerNode, pol, 13)
	return Fig8Run{N: n, Ranks: ranks, Time: t, Breakdown: rt.Profiler().Breakdown(t)}
}

// Fig8 regenerates Figure 8: Cilksort strong scaling for two input sizes,
// No Cache vs Write-Back (Lazy), with speedups over the modelled serial
// execution. It returns the rows and, for Fig. 9, the breakdown of each run
// of the lazy configuration — not the runtimes, which would keep every
// finished run's arrays and caches alive until the figure returns.
func Fig8(w io.Writer, sc Scale) ([]Row, []Fig8Run) {
	fmt.Fprintf(w, "\n== Figure 8: Cilksort strong scaling (cutoff %d) ==\n", sc.SortCutoff)
	fmt.Fprintf(w, "%-10s %-20s %7s %12s %10s\n", "size", "policy", "ranks", "time (ms)", "speedup")
	var rows []Row
	var lazy []Fig8Run
	for _, n := range []int64{sc.CilksortN, sc.CilksortBigN} {
		serial := cilksort.SerialTime(n)
		fmt.Fprintf(w, "%-10d %-20s %7d %12.3f %10s\n", n, "(serial model)", 1, ms(serial), "1.0")
		for _, pol := range []ityr.Policy{ityr.NoCache, ityr.WriteBackLazy} {
			for _, ranks := range sc.Ranks {
				r := runFig8(sc, n, ranks, pol)
				t := r.Time
				sp := float64(serial) / float64(t)
				fmt.Fprintf(w, "%-10d %-20s %7d %12.3f %10.1f\n", n, pol, ranks, ms(t), sp)
				rows = append(rows, Row{Fig: "8", Workload: fmt.Sprintf("cilksort-%d", n),
					Policy: pol.String(), Ranks: ranks, Param: n, Time: t, Value: sp})
				if pol == ityr.WriteBackLazy {
					lazy = append(lazy, r)
				}
			}
		}
	}
	return rows, lazy
}

// Fig9 regenerates Figure 9: the per-category performance breakdown of the
// Write-Back (Lazy) Cilksort runs, normalized per input size. It makes the
// runs itself; `all` prints the figure from Fig. 8's (fig9From).
func Fig9(w io.Writer, sc Scale) []Row {
	var lazy []Fig8Run
	for _, n := range []int64{sc.CilksortN, sc.CilksortBigN} {
		for _, ranks := range sc.Ranks {
			lazy = append(lazy, runFig8(sc, n, ranks, ityr.WriteBackLazy))
		}
	}
	return fig9From(w, lazy)
}

// fig9From prints Figure 9 from the lazy runs Fig8 returned.
func fig9From(w io.Writer, lazy []Fig8Run) []Row {
	fmt.Fprintf(w, "\n== Figure 9: Cilksort Write-Back (Lazy) breakdown ==\n")
	var rows []Row
	for _, r := range lazy {
		fmt.Fprintf(w, "-- %d elements, %d ranks (total %0.3f ms x %d ranks) --\n", r.N, r.Ranks, ms(r.Time), r.Ranks)
		var total sim.Time
		for _, v := range r.Breakdown {
			total += v
		}
		for _, cat := range []string{
			cilksort.CatGet, "Checkout", "Checkin", "Release", "Lazy Release",
			"Acquire", cilksort.CatMerge, cilksort.CatQuicksort, "Others",
		} {
			v := r.Breakdown[cat]
			frac := 0.0
			if total > 0 {
				frac = float64(v) / float64(total)
			}
			fmt.Fprintf(w, "   %-18s %10.3f ms  %5.1f%%\n", cat, ms(v), 100*frac)
			rows = append(rows, Row{Fig: "9", Workload: fmt.Sprintf("cilksort-%d", r.N),
				Policy: cat, Ranks: r.Ranks, Time: v, Value: frac})
		}
	}
	return rows
}

// Fig10 regenerates Figure 10: UTS-Mem traversal throughput (nodes/s) for
// the two trees, Cache (Write-Back, Lazy) vs No Cache, strong scaling.
func Fig10(w io.Writer, sc Scale) []Row {
	fmt.Fprintf(w, "\n== Figure 10: UTS-Mem traversal throughput ==\n")
	fmt.Fprintf(w, "%-8s %-20s %7s %12s %16s\n", "tree", "policy", "ranks", "time (ms)", "nodes/s")
	var rows []Row
	for _, tree := range []uts.Tree{sc.UTSSmall, sc.UTSBig} {
		for _, pol := range []ityr.Policy{ityr.NoCache, ityr.WriteBackLazy} {
			for _, ranks := range sc.Ranks {
				res, _ := runUTS(runtimeConfig(ranks, sc.CoresPerNode, pol, 17), tree)
				t, n := res.TraverseTime, res.Counted
				tput := float64(n) / (float64(t) / 1e9)
				fmt.Fprintf(w, "%-8s %-20s %7d %12.3f %16.0f\n", tree.Name, pol, ranks, ms(t), tput)
				rows = append(rows, Row{Fig: "10", Workload: tree.Name, Policy: pol.String(),
					Ranks: ranks, Param: n, Time: t, Value: tput})
			}
		}
	}
	return rows
}

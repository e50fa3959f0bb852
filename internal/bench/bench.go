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

// CilksortRun sorts n elements at the given cutoff and returns the sorting
// time (generation excluded, as in the paper) and the runtime for profiler
// access.
func CilksortRun(n, cutoff int64, ranks, coresPerNode int, pol ityr.Policy, seed int64) (sim.Time, *ityr.Runtime) {
	rt := ityr.NewRuntime(runtimeConfig(ranks, coresPerNode, pol, seed))
	stopHB := watchEngine(fmt.Sprintf("cilksort n=%d", n), ranks, rt.Engine())
	defer stopHB()
	var elapsed sim.Time
	err := rt.Run(func(s *ityr.SPMD) {
		var a, b ityr.GSpan[cilksort.Elem]
		if s.Rank() == 0 {
			a = ityr.AllocArraySPMD[cilksort.Elem](s, n, ityr.BlockCyclicDist)
			b = ityr.AllocArraySPMD[cilksort.Elem](s, n, ityr.BlockCyclicDist)
		}
		s.Barrier()
		s.RootExec(func(c *ityr.Ctx) {
			cilksort.Generate(c, a, uint64(seed))
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
		panic(err)
	}
	return elapsed, rt
}

// MetricsRun runs the canonical Fig. 7 cilksort configuration (the lazy
// write-back policy on the scale's fixed rank count) and writes the
// run's "itoyori-metrics/v1" snapshot — the machine-readable runtime
// counters the app CLIs' -metrics flag writes.
func MetricsRun(w io.Writer, sc Scale) error {
	_, rt := CilksortRun(sc.CilksortN, sc.SortCutoff, sc.FixedRanks, sc.CoresPerNode, ityr.WriteBackLazy, 11)
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
			t, _ := CilksortRun(sc.CilksortN, cutoff, sc.FixedRanks, sc.CoresPerNode, pol, 11)
			fmt.Fprintf(w, "%-20s %10d %14.3f\n", pol, cutoff, ms(t))
			rows = append(rows, Row{Fig: "7", Workload: "cilksort", Policy: pol.String(),
				Ranks: sc.FixedRanks, Param: cutoff, Time: t})
		}
	}
	return rows
}

// Fig8 regenerates Figure 8: Cilksort strong scaling for two input sizes,
// No Cache vs Write-Back (Lazy), with speedups over the modelled serial
// execution. It returns the rows and the per-run runtimes of the lazy
// configuration for Fig. 9's breakdowns.
func Fig8(w io.Writer, sc Scale) ([]Row, map[string]*ityr.Runtime) {
	fmt.Fprintf(w, "\n== Figure 8: Cilksort strong scaling (cutoff %d) ==\n", sc.SortCutoff)
	fmt.Fprintf(w, "%-10s %-20s %7s %12s %10s\n", "size", "policy", "ranks", "time (ms)", "speedup")
	var rows []Row
	lazyRuntimes := make(map[string]*ityr.Runtime)
	for _, n := range []int64{sc.CilksortN, sc.CilksortBigN} {
		serial := cilksort.SerialTime(n)
		fmt.Fprintf(w, "%-10d %-20s %7d %12.3f %10s\n", n, "(serial model)", 1, ms(serial), "1.0")
		for _, pol := range []ityr.Policy{ityr.NoCache, ityr.WriteBackLazy} {
			for _, ranks := range sc.Ranks {
				t, rt := CilksortRun(n, sc.SortCutoff, ranks, sc.CoresPerNode, pol, 13)
				sp := float64(serial) / float64(t)
				fmt.Fprintf(w, "%-10d %-20s %7d %12.3f %10.1f\n", n, pol, ranks, ms(t), sp)
				rows = append(rows, Row{Fig: "8", Workload: fmt.Sprintf("cilksort-%d", n),
					Policy: pol.String(), Ranks: ranks, Param: n, Time: t, Value: sp})
				if pol == ityr.WriteBackLazy {
					lazyRuntimes[fmt.Sprintf("%d/%d", n, ranks)] = rt
				}
			}
		}
	}
	return rows, lazyRuntimes
}

// Fig9 regenerates Figure 9: the per-category performance breakdown of the
// Write-Back (Lazy) Cilksort runs, normalized per input size.
func Fig9(w io.Writer, sc Scale) []Row {
	fmt.Fprintf(w, "\n== Figure 9: Cilksort Write-Back (Lazy) breakdown ==\n")
	var rows []Row
	for _, n := range []int64{sc.CilksortN, sc.CilksortBigN} {
		for _, ranks := range sc.Ranks {
			t, rt := CilksortRun(n, sc.SortCutoff, ranks, sc.CoresPerNode, ityr.WriteBackLazy, 13)
			bd := rt.Profiler().Breakdown(t)
			fmt.Fprintf(w, "-- %d elements, %d ranks (total %0.3f ms x %d ranks) --\n", n, ranks, ms(t), ranks)
			var total sim.Time
			for _, v := range bd {
				total += v
			}
			for _, cat := range []string{
				cilksort.CatGet, "Checkout", "Checkin", "Release", "Lazy Release",
				"Acquire", cilksort.CatMerge, cilksort.CatQuicksort, "Others",
			} {
				v := bd[cat]
				frac := 0.0
				if total > 0 {
					frac = float64(v) / float64(total)
				}
				fmt.Fprintf(w, "   %-18s %10.3f ms  %5.1f%%\n", cat, ms(v), 100*frac)
				rows = append(rows, Row{Fig: "9", Workload: fmt.Sprintf("cilksort-%d", n),
					Policy: cat, Ranks: ranks, Time: v, Value: frac})
			}
		}
	}
	return rows
}

// UTSRun builds the tree, then measures traversal time and throughput,
// returning the runtime as well for traffic-counter access.
func UTSRun(tree uts.Tree, ranks, coresPerNode int, pol ityr.Policy, seed int64) (sim.Time, int64, *ityr.Runtime) {
	rt := ityr.NewRuntime(runtimeConfig(ranks, coresPerNode, pol, seed))
	stopHB := watchEngine("utsmem "+tree.Name, ranks, rt.Engine())
	defer stopHB()
	var elapsed sim.Time
	var nodes int64
	err := rt.Run(func(s *ityr.SPMD) {
		var root ityr.GPtr[uts.Node]
		s.RootExec(func(c *ityr.Ctx) {
			root, _ = uts.Build(c, tree)
		})
		t0 := s.Now()
		s.RootExec(func(c *ityr.Ctx) {
			nodes = uts.Traverse(c, root)
		})
		if s.Rank() == 0 {
			elapsed = s.Now() - t0
		}
	})
	if err != nil {
		panic(err)
	}
	return elapsed, nodes, rt
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
				t, n, _ := UTSRun(tree, ranks, sc.CoresPerNode, pol, 17)
				tput := float64(n) / (float64(t) / 1e9)
				fmt.Fprintf(w, "%-8s %-20s %7d %12.3f %16.0f\n", tree.Name, pol, ranks, ms(t), tput)
				rows = append(rows, Row{Fig: "10", Workload: tree.Name, Policy: pol.String(),
					Ranks: ranks, Param: n, Time: t, Value: tput})
			}
		}
	}
	return rows
}

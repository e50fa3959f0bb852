package bench

import (
	"fmt"
	"io"

	"ityr"
	"ityr/internal/apps/cilksort"
	"ityr/internal/apps/fmm"
	"ityr/internal/apps/fmmmpi"
	"ityr/internal/apps/uts"
	"ityr/internal/netmodel"
	"ityr/internal/sim"
)

// Ablation experiments probing the design choices DESIGN.md calls out:
// sub-block size (§4.3.1), cache capacity (§3.3), distribution policy
// (§4.2), lazy release (§5.2), FMM θ, the node-shared cache (§3.2 future
// work) and locality-aware stealing (§8 future work).

// ablUTSTree returns the tree used by the UTS-based ablations at sc.
func ablUTSTree(sc Scale) uts.Tree {
	t := sc.UTSSmall
	t.Name = "abl-" + t.Name
	return t
}

// ablCilksort is the ablations' (and the perf suite's) Cilksort: generator
// seed 77 under an explicit runtime configuration and distribution.
func ablCilksort(cfg ityr.Config, n, cutoff int64, d ityr.DistPolicy) (sim.Time, *ityr.Runtime) {
	res, rt := runCilksort(cfg, cilksort.Params{N: n, Cutoff: cutoff, Seed: 77, Dist: d})
	return res.SortTime, rt
}

// AblationSubBlock sweeps the remote-fetch granularity on the UTS-Mem
// traversal (§4.3.1).
func AblationSubBlock(w io.Writer, sc Scale) {
	tree := ablUTSTree(sc)
	fmt.Fprintf(w, "\n== Ablation: sub-block size (UTS traversal, %d ranks) ==\n", sc.FixedRanks)
	for _, sbs := range []int{256, 1 << 10, 4 << 10, 16 << 10} {
		cfg := runtimeConfig(sc.FixedRanks, sc.CoresPerNode, ityr.WriteBackLazy, 5)
		cfg.Pgas.SubBlockSize = sbs
		res, rt := runUTS(cfg, tree)
		trav := res.TraverseTime
		fmt.Fprintf(w, "  sub-block %6d B: traverse %8.3f ms, fetched %6.2f MB in %d ops\n",
			sbs, ms(trav), float64(rt.Space().Stats.FetchBytes)/1e6, rt.Space().Stats.FetchOps)
	}
}

// AblationCacheSize sweeps the per-process cache capacity on Cilksort
// (§3.3).
func AblationCacheSize(w io.Writer, sc Scale) {
	n := sc.CilksortBigN
	fmt.Fprintf(w, "\n== Ablation: cache capacity (Cilksort %d elements, %d ranks, cutoff 4K) ==\n", n, sc.FixedRanks)
	for _, cache := range []int{512 << 10, 2 << 20, 16 << 20} {
		cfg := runtimeConfig(sc.FixedRanks, sc.CoresPerNode, ityr.WriteBackLazy, 5)
		cfg.Pgas.CacheSize = cache
		t, rt := ablCilksort(cfg, n, 4<<10, ityr.BlockCyclicDist)
		fmt.Fprintf(w, "  cache %4d KiB: sort %8.3f ms, evictions %d, refetched %.2f MB\n",
			cache>>10, ms(t), rt.Space().Stats.Evictions, float64(rt.Space().Stats.FetchBytes)/1e6)
	}
}

// AblationDistribution compares block vs block-cyclic distribution (§4.2).
func AblationDistribution(w io.Writer, sc Scale) {
	n := sc.CilksortBigN
	// Narrow nodes (4 ranks each) sharpen the home-placement difference:
	// block distribution concentrates each merge phase's traffic on a few
	// home nodes, block-cyclic spreads it.
	fmt.Fprintf(w, "\n== Ablation: distribution policy (Cilksort %d elements, %d ranks, 4/node) ==\n", n, sc.FixedRanks)
	for _, d := range []ityr.DistPolicy{ityr.BlockDist, ityr.BlockCyclicDist} {
		cfg := runtimeConfig(sc.FixedRanks, 4, ityr.WriteBackLazy, 5)
		t, rt := ablCilksort(cfg, n, 16<<10, d)
		name := "block"
		if d == ityr.BlockCyclicDist {
			name = "block-cyclic"
		}
		fmt.Fprintf(w, "  %-14s sort %8.3f ms (fetched %.2f MB)\n",
			name, ms(t), float64(rt.Space().Stats.FetchBytes)/1e6)
	}
}

// AblationLazyRelease isolates §5.2 at fine task grain.
func AblationLazyRelease(w io.Writer, sc Scale) {
	n := sc.CilksortN
	fmt.Fprintf(w, "\n== Ablation: lazy release (Cilksort %d elements, cutoff 256, %d ranks) ==\n", n, sc.FixedRanks)
	for _, pol := range []ityr.Policy{ityr.WriteBack, ityr.WriteBackLazy} {
		cfg := runtimeConfig(sc.FixedRanks, sc.CoresPerNode, pol, 5)
		t, rt := ablCilksort(cfg, n, 256, ityr.BlockCyclicDist)
		fmt.Fprintf(w, "  %-20s sort %8.3f ms (lazy releases deferred: %d)\n",
			pol, ms(t), rt.Space().Stats.LazyReleases)
	}
}

// AblationFMMTheta sweeps the accuracy/cost tradeoff of the acceptance
// criterion.
func AblationFMMTheta(w io.Writer, sc Scale) {
	n := sc.FMMSmallN
	fmt.Fprintf(w, "\n== Ablation: FMM θ sweep (%d bodies, %d ranks) ==\n", n, sc.FixedRanks)
	for _, theta := range []float64{0.2, 0.3, 0.5} {
		p := fmm.Params{N: n, Theta: theta, NCrit: 32, NSpawn: sc.FMMNSpawn, Seed: 7}
		res, _ := runFMM(runtimeConfig(sc.FixedRanks, sc.CoresPerNode, ityr.WriteBackLazy, 9), p)
		t := res.EvalTime
		bodies := fmm.GenBodies(p.N, p.Seed)
		cells := fmm.BuildTree(bodies, p.NCrit)
		k := fmm.CountKernels(cells, theta)
		fmt.Fprintf(w, "  θ=%.2f: eval %8.3f ms (P2P pairs %9d, M2L %6d)\n",
			theta, ms(t), k.P2PPairs, k.M2L)
	}
}

// AblationSharedCache compares private and node-shared caches on UTS-Mem
// (§3.2 future work).
func AblationSharedCache(w io.Writer, sc Scale) {
	tree := ablUTSTree(sc)
	fmt.Fprintf(w, "\n== Ablation: node-shared cache (UTS traversal, %d ranks, %d/node) ==\n",
		sc.FixedRanks, sc.CoresPerNode)
	for _, shared := range []bool{false, true} {
		cfg := runtimeConfig(sc.FixedRanks, sc.CoresPerNode, ityr.WriteBackLazy, 5)
		cfg.Pgas.SharedCache = shared
		res, rt := runUTS(cfg, tree)
		trav := res.TraverseTime
		name := "private caches"
		if shared {
			name = "node-shared cache"
		}
		fmt.Fprintf(w, "  %-18s traverse %8.3f ms, fetched %6.2f MB\n",
			name, ms(trav), float64(rt.Space().Stats.FetchBytes)/1e6)
	}
}

// AblationLocalitySteals compares random and locality-aware victim
// selection (§8 future work).
func AblationLocalitySteals(w io.Writer, sc Scale) {
	n := sc.CilksortN
	fmt.Fprintf(w, "\n== Ablation: victim selection (Cilksort %d elements, %d ranks, %d/node) ==\n",
		n, sc.FixedRanks, sc.CoresPerNode)
	for _, loc := range []bool{false, true} {
		cfg := runtimeConfig(sc.FixedRanks, sc.CoresPerNode, ityr.WriteBackLazy, 5)
		cfg.Sched.LocalityAware = loc
		t, rt := ablCilksort(cfg, n, 4<<10, ityr.BlockCyclicDist)
		name := "random"
		if loc {
			name = "locality-aware"
		}
		st := rt.Sched().Stats
		fmt.Fprintf(w, "  %-15s sort %8.3f ms (steals %d, %.0f%% intra-node)\n",
			name, ms(t), st.Steals, 100*float64(st.IntraSteals)/float64(st.Steals+1))
	}
}

// AblationFMMDistribution compares particle distributions: clustered
// inputs widen the MPI baseline's static-partitioning imbalance while the
// work-stealing runtime absorbs them.
func AblationFMMDistribution(w io.Writer, sc Scale) {
	n := sc.FMMSmallN
	net := netmodel.Default(sc.CoresPerNode)
	nodes := sc.FixedRanks / sc.CoresPerNode
	if nodes < 2 {
		nodes = 2
	}
	fmt.Fprintf(w, "\n== Ablation: FMM particle distribution (%d bodies, %d ranks; MPI on %d nodes) ==\n",
		n, sc.FixedRanks, nodes)
	for _, d := range []fmm.Dist{fmm.Cube, fmm.Sphere, fmm.Plummer} {
		p := fmm.Params{N: n, Theta: sc.FMMTheta, NCrit: 32, NSpawn: sc.FMMNSpawn, Seed: 7, Dist: d}
		res, _ := runFMM(runtimeConfig(sc.FixedRanks, sc.CoresPerNode, ityr.WriteBackLazy, 9), p)
		t := res.EvalTime
		r := fmmmpi.Run(p, nodes, sc.CoresPerNode, net)
		fmt.Fprintf(w, "  %-8s itoyori %8.3f ms | MPI %8.3f ms (idleness %.3f)\n",
			d, ms(t), ms(r.Elapsed), r.Idleness)
	}
}

// AblationBatching quantifies the cache communication-batching layer
// (DESIGN.md §4.5): write-back coalescing and sequential prefetch,
// separately and at increasing lookahead depth, on a Cilksort whose merge
// phases stream sequentially through the distributed arrays — the pattern
// both mechanisms target. Two block geometries bracket the effect: the
// paper's 64 KiB blocks over block-cyclic arrays give the mechanisms
// almost nothing to merge (adjacent same-home blocks sit nranks apart and
// working sets span few blocks), so batching must be neutral there, while
// 4 KiB blocks over a block distribution — the perf gate's
// "communication microscope" geometry — expose the per-block structure
// the mechanisms batch. Round trips are the paper's cost driver.
// Coalescing only merges traffic the run would have issued anyway, so
// its time is never worse; prefetch is speculative — it trades extra
// fetched bytes (and occasionally a little time) for fewer round trips,
// which is why the depth sweep is here and why the perf gate pins the
// shipped depth.
func AblationBatching(w io.Writer, sc Scale) {
	n := sc.CilksortN
	variants := []struct {
		name     string
		coalesce bool
		prefetch int
	}{
		{"unbatched", false, 0},
		{"coalesce", true, 0},
		{"coalesce+pf1", true, 1},
		{"coalesce+pf2", true, 2},
		{"coalesce+pf4", true, 4},
		{"coalesce+pf8", true, 8},
	}
	geoms := []struct {
		name string
		fine bool
		dist ityr.DistPolicy
	}{
		{"paper geometry: 64 KiB blocks, block-cyclic", false, ityr.BlockCyclicDist},
		{"fine geometry: 4 KiB blocks, block dist", true, ityr.BlockDist},
	}
	fmt.Fprintf(w, "\n== Ablation: cache communication batching (Cilksort %d elements, cutoff %d, %d ranks) ==\n",
		n, sc.SortCutoff, sc.FixedRanks)
	for _, g := range geoms {
		fmt.Fprintf(w, " -- %s --\n", g.name)
		for _, v := range variants {
			cfg := runtimeConfig(sc.FixedRanks, sc.CoresPerNode, ityr.WriteBackLazy, 5)
			if g.fine {
				cfg.Pgas.BlockSize = 4 << 10
				cfg.Pgas.SubBlockSize = 512
			}
			cfg.Pgas.CoalesceWriteBack = v.coalesce
			cfg.Pgas.PrefetchBlocks = v.prefetch
			t, rt := ablCilksort(cfg, n, sc.SortCutoff, g.dist)
			st := rt.Comm().Stats()
			b := rt.Space().Batch
			fmt.Fprintf(w, "  %-14s sort %8.3f ms: %7d round trips, %5d wb ops, prefetch %4d hits / %d evicted unused\n",
				v.name, ms(t), st.GetOps+st.PutOps+st.AtomicOps,
				rt.Space().Stats.WriteBackOps, b.PrefetchHits, b.PrefetchMisses)
		}
	}
}

// Ablations runs every ablation experiment.
func Ablations(w io.Writer, sc Scale) {
	AblationSubBlock(w, sc)
	AblationCacheSize(w, sc)
	AblationDistribution(w, sc)
	AblationLazyRelease(w, sc)
	AblationFMMTheta(w, sc)
	AblationSharedCache(w, sc)
	AblationLocalitySteals(w, sc)
	AblationFMMDistribution(w, sc)
	AblationOverlap(w, sc)
	AblationBatching(w, sc)
}

// AblationOverlap compares blocking checkout fetches with
// communication-computation overlap (§8 future work) on the UTS-Mem
// traversal, whose cache misses are frequent and latency-bound.
func AblationOverlap(w io.Writer, sc Scale) {
	tree := ablUTSTree(sc)
	fmt.Fprintf(w, "\n== Ablation: communication-computation overlap (UTS traversal, %d ranks) ==\n", sc.FixedRanks)
	for _, overlap := range []bool{false, true} {
		cfg := runtimeConfig(sc.FixedRanks, sc.CoresPerNode, ityr.WriteBackLazy, 5)
		cfg.Overlap = overlap
		res, rt := runUTS(cfg, tree)
		trav := res.TraverseTime
		name := "blocking fetches"
		if overlap {
			name = "overlapped fetches"
		}
		fmt.Fprintf(w, "  %-18s traverse %8.3f ms (comm waits overlapped: %d)\n",
			name, ms(trav), rt.Sched().Stats.CommWaits)
	}
}

package bench

import (
	"fmt"
	"io"

	"ityr"
	"ityr/internal/apps/cilksort"
	"ityr/internal/apps/fmm"
	"ityr/internal/apps/fmmmpi"
	"ityr/internal/sim"
)

// Ablation experiments probing the design choices DESIGN.md calls out:
// sub-block size (§4.3.1), cache capacity (§3.3), distribution policy
// (§4.2), lazy release (§5.2), FMM θ, locality-aware stealing (§8 future
// work) and the FMM particle distribution. Rows abl/<ablation>/<variant>;
// one stated direction each in claim/abl.

// ablations is what `itybench abl` walks, in print order.
var ablations = []func(io.Writer, *Report, Scale){
	ablSubBlock, ablCacheSize, ablDistribution, ablLazyRelease, ablFMMTheta,
	ablLocalitySteals, ablFMMDistribution,
}

func abl(w io.Writer, rep *Report, sc Scale) {
	for _, a := range ablations {
		a(w, rep, sc)
	}
}

// ablConfig is the configuration every ablation varies: the lazy policy on
// the scale's fixed rank count, seed 5.
func ablConfig(sc Scale) ityr.Config {
	return runtimeConfig(sc.FixedRanks, sc.CoresPerNode, ityr.WriteBackLazy, 5)
}

// ablMetrics are the numbers an ablation row keeps of a run: its time and
// the cache, scheduler and wire counters the ablations' lines print.
func ablMetrics(t sim.Time, rt *ityr.Runtime) Metrics {
	cache, sched, wire := rt.Space().Stats, rt.Sched().Stats, rt.Comm().Stats()
	return Metrics{
		"sim_ns":      float64(t),
		"fetch_bytes": float64(cache.FetchBytes), "fetch_ops": float64(cache.FetchOps),
		"evictions": float64(cache.Evictions), "lazy_releases": float64(cache.LazyReleases),
		"wb_ops":      float64(cache.WriteBackOps),
		"round_trips": float64(wire.GetOps + wire.PutOps + wire.AtomicOps),
		"steals":      float64(sched.Steals), "intra_steals": float64(sched.IntraSteals),
	}
}

// ablUTS is the UTS-based ablations' run: the scale's small tree under cfg.
func ablUTS(sc Scale, cfg ityr.Config) Metrics {
	tree := sc.UTSSmall
	tree.Name = "abl-" + tree.Name
	res, rt := runUTS(cfg, tree)
	return ablMetrics(res.TraverseTime, rt)
}

// ablCilksort is the ablations' (and the perf suite's) Cilksort: generator
// seed 77 under an explicit runtime configuration and distribution.
func ablCilksort(cfg ityr.Config, n, cutoff int64, d ityr.DistPolicy) (sim.Time, *ityr.Runtime) {
	res, rt := runCilksort(cfg, cilksort.Params{N: n, Cutoff: cutoff, Seed: 77, Dist: d})
	return res.SortTime, rt
}

// ablSubBlock sweeps the remote-fetch granularity on the UTS-Mem traversal
// (§4.3.1).
func ablSubBlock(w io.Writer, rep *Report, sc Scale) {
	fmt.Fprintf(w, "\n== Ablation: sub-block size (UTS traversal, %d ranks) ==\n", sc.FixedRanks)
	for _, sbs := range subBlockSizes {
		m := rep.row(rowName("abl/subblock", sbs), func() Metrics {
			cfg := ablConfig(sc)
			cfg.Pgas.SubBlockSize = sbs
			return ablUTS(sc, cfg)
		})
		fmt.Fprintf(w, "  sub-block %6d B: traverse %8.3f ms, fetched %6.2f MB in %.0f ops\n",
			sbs, m.ms(), m["fetch_bytes"]/1e6, m["fetch_ops"])
	}
}

var subBlockSizes = []int{256, 1 << 10, 4 << 10, 16 << 10}

// ablCacheSize sweeps the per-process cache capacity on Cilksort (§3.3).
func ablCacheSize(w io.Writer, rep *Report, sc Scale) {
	n := sc.CilksortBigN
	fmt.Fprintf(w, "\n== Ablation: cache capacity (Cilksort %d elements, %d ranks, cutoff 4K) ==\n", n, sc.FixedRanks)
	for _, kib := range cacheKiB {
		m := rep.row(rowName("abl/cache", kib), func() Metrics {
			cfg := ablConfig(sc)
			cfg.Pgas.CacheSize = kib << 10
			return ablMetrics(ablCilksort(cfg, n, 4<<10, ityr.BlockCyclicDist))
		})
		fmt.Fprintf(w, "  cache %4d KiB: sort %8.3f ms, evictions %.0f, refetched %.2f MB\n",
			kib, m.ms(), m["evictions"], m["fetch_bytes"]/1e6)
	}
}

var cacheKiB = []int{512, 2 << 10, 16 << 10}

// ablDistribution compares block vs block-cyclic distribution (§4.2).
// Narrow nodes (4 ranks each) sharpen the home-placement difference: block
// distribution concentrates each merge phase's traffic on a few home nodes,
// block-cyclic spreads it.
func ablDistribution(w io.Writer, rep *Report, sc Scale) {
	n := sc.CilksortBigN
	fmt.Fprintf(w, "\n== Ablation: distribution policy (Cilksort %d elements, %d ranks, 4/node) ==\n", n, sc.FixedRanks)
	for _, d := range []struct {
		name string
		dist ityr.DistPolicy
	}{{"block", ityr.BlockDist}, {"block-cyclic", ityr.BlockCyclicDist}} {
		m := rep.row(rowName("abl/dist", d.name), func() Metrics {
			cfg := runtimeConfig(sc.FixedRanks, 4, ityr.WriteBackLazy, 5)
			return ablMetrics(ablCilksort(cfg, n, 16<<10, d.dist))
		})
		fmt.Fprintf(w, "  %-14s sort %8.3f ms (fetched %.2f MB)\n", d.name, m.ms(), m["fetch_bytes"]/1e6)
	}
}

// ablLazyRelease isolates §5.2 at fine task grain.
func ablLazyRelease(w io.Writer, rep *Report, sc Scale) {
	n := sc.CilksortN
	fmt.Fprintf(w, "\n== Ablation: lazy release (Cilksort %d elements, cutoff 256, %d ranks) ==\n", n, sc.FixedRanks)
	for _, pol := range []ityr.Policy{ityr.WriteBack, ityr.WriteBackLazy} {
		m := rep.row(rowName("abl/lazyrelease", pol), func() Metrics {
			cfg := ablConfig(sc)
			cfg.Pgas.Policy = pol
			return ablMetrics(ablCilksort(cfg, n, 256, ityr.BlockCyclicDist))
		})
		fmt.Fprintf(w, "  %-20s sort %8.3f ms (lazy releases deferred: %.0f)\n", pol, m.ms(), m["lazy_releases"])
	}
}

// ablFMM runs the ablations' FMM: the scale's small input under the lazy
// policy, seed 9.
func ablFMM(sc Scale, p fmm.Params) sim.Time {
	res, _ := runFMM(runtimeConfig(sc.FixedRanks, sc.CoresPerNode, ityr.WriteBackLazy, 9), p)
	return res.EvalTime
}

// ablFMMTheta sweeps the accuracy/cost tradeoff of the acceptance
// criterion.
func ablFMMTheta(w io.Writer, rep *Report, sc Scale) {
	n := sc.FMMSmallN
	fmt.Fprintf(w, "\n== Ablation: FMM θ sweep (%d bodies, %d ranks) ==\n", n, sc.FixedRanks)
	for _, theta := range fmmThetas {
		m := rep.row(rowName("abl/theta", theta), func() Metrics {
			p := fmm.Params{N: n, Theta: theta, NCrit: 32, NSpawn: sc.FMMNSpawn, Seed: 7}
			k := fmm.CountKernels(fmm.BuildTree(fmm.GenBodies(p.N, p.Seed), p.NCrit), theta)
			return Metrics{"sim_ns": float64(ablFMM(sc, p)), "p2p_pairs": float64(k.P2PPairs), "m2l": float64(k.M2L)}
		})
		fmt.Fprintf(w, "  θ=%.2f: eval %8.3f ms (P2P pairs %9.0f, M2L %6.0f)\n", theta, m.ms(), m["p2p_pairs"], m["m2l"])
	}
}

var fmmThetas = []float64{0.2, 0.3, 0.5}

// ablLocalitySteals compares random and locality-aware victim selection (§8
// future work).
func ablLocalitySteals(w io.Writer, rep *Report, sc Scale) {
	n := sc.CilksortN
	fmt.Fprintf(w, "\n== Ablation: victim selection (Cilksort %d elements, %d ranks, %d/node) ==\n",
		n, sc.FixedRanks, sc.CoresPerNode)
	for _, name := range []string{"random", "locality-aware"} {
		m := rep.row(rowName("abl/victim", name), func() Metrics {
			cfg := ablConfig(sc)
			cfg.Sched.LocalityAware = name == "locality-aware"
			return ablMetrics(ablCilksort(cfg, n, 4<<10, ityr.BlockCyclicDist))
		})
		fmt.Fprintf(w, "  %-15s sort %8.3f ms (steals %.0f, %.0f%% intra-node)\n",
			name, m.ms(), m["steals"], 100*intraShare(m))
	}
}

// intraShare is the intra-node share of a run's steals.
func intraShare(m Metrics) float64 { return m["intra_steals"] / (m["steals"] + 1) }

// ablFMMDistribution compares particle distributions: clustered inputs
// widen the MPI baseline's static-partitioning imbalance while the
// work-stealing runtime absorbs them.
func ablFMMDistribution(w io.Writer, rep *Report, sc Scale) {
	n := sc.FMMSmallN
	nodes := max(sc.FixedRanks/sc.CoresPerNode, 2)
	fmt.Fprintf(w, "\n== Ablation: FMM particle distribution (%d bodies, %d ranks; MPI on %d nodes) ==\n",
		n, sc.FixedRanks, nodes)
	for _, d := range []fmm.Dist{fmm.Cube, fmm.Sphere, fmm.Plummer} {
		m := rep.row(rowName("abl/fmmdist", d), func() Metrics {
			p := fmm.Params{N: n, Theta: sc.FMMTheta, NCrit: 32, NSpawn: sc.FMMNSpawn, Seed: 7, Dist: d}
			r := fmmmpi.Run(p, nodes, sc.CoresPerNode, ityr.DefaultNet(sc.CoresPerNode))
			return Metrics{"sim_ns": float64(ablFMM(sc, p)), "mpi_ns": float64(r.Elapsed), "mpi_idleness": r.Idleness}
		})
		fmt.Fprintf(w, "  %-8s itoyori %8.3f ms | MPI %8.3f ms (idleness %.3f)\n",
			d, m.ms(), m["mpi_ns"]/1e6, m["mpi_idleness"])
	}
}

// ablClaims holds one stated direction per ablation (EXPERIMENTS.md
// §Ablations says why each is the one that matters):
// growing the sub-block trades fetch operations for fetched bytes; a
// smaller cache evicts more and the full-size one never; block vs
// block-cyclic is a wash for Cilksort (within 5%); lazy release is faster
// than eager write-back at fine grain; a larger θ is cheaper; locality-aware
// stealing raises the intra-node share of steals and is faster; clustered
// bodies (sphere, Plummer) leave the static MPI partitioning idler than the
// uniform cube.
func ablClaims(rep *Report, sc Scale) Metrics {
	at := func(metric string, path ...any) float64 { return rep.at(metric, append([]any{"abl"}, path...)...) }
	t := func(path ...any) float64 { return at("sim_ns", path...) }

	subblock, cache := true, at("evictions", "cache", cacheKiB[len(cacheKiB)-1]) == 0
	for i := 1; i < len(subBlockSizes); i++ {
		a, b := subBlockSizes[i-1], subBlockSizes[i]
		subblock = subblock && at("fetch_bytes", "subblock", a) < at("fetch_bytes", "subblock", b) &&
			at("fetch_ops", "subblock", a) > at("fetch_ops", "subblock", b)
	}
	for i := 1; i < len(cacheKiB); i++ {
		cache = cache && at("evictions", "cache", cacheKiB[i-1]) > at("evictions", "cache", cacheKiB[i])
	}
	theta := true
	for i := 1; i < len(fmmThetas); i++ {
		theta = theta && t("theta", fmmThetas[i-1]) > t("theta", fmmThetas[i])
	}
	wash := t("dist/block") / t("dist/block-cyclic")
	return Metrics{
		"subblock_trades_ops_for_bytes":     verdict(subblock),
		"smaller_cache_evicts_more":         verdict(cache),
		"distribution_is_a_wash":            verdict(wash > 0.95 && wash < 1.05),
		"lazy_release_faster_at_fine_grain": verdict(t("lazyrelease", ityr.WriteBackLazy) < t("lazyrelease", ityr.WriteBack)),
		"larger_theta_is_cheaper":           verdict(theta),
		"locality_steals_stay_on_node_and_win": verdict(
			intraShare(rep.Rows["abl/victim/locality-aware"]) > intraShare(rep.Rows["abl/victim/random"]) &&
				t("victim/locality-aware") < t("victim/random")),
		"clustered_bodies_idle_mpi_more": verdict(
			at("mpi_idleness", "fmmdist", fmm.Sphere) > at("mpi_idleness", "fmmdist", fmm.Cube) &&
				at("mpi_idleness", "fmmdist", fmm.Plummer) > at("mpi_idleness", "fmmdist", fmm.Cube)),
	}
}

package bench

import (
	"fmt"
	"io"

	"ityr"
	"ityr/internal/apps/fmm"
	"ityr/internal/apps/fmmmpi"
)

// fig11 regenerates Figure 11: ExaFMM execution time, strong scaling for
// two body counts across the four cache policies plus the MPI baseline.
// Rows fig11/<bodies>/<policy|MPI>/<ranks>.
func fig11(w io.Writer, rep *Report, sc Scale) {
	fmt.Fprintf(w, "\n== Figure 11: FMM strong scaling (θ=%.2f, ncrit=32, nspawn=%d) ==\n",
		sc.FMMTheta, sc.FMMNSpawn)
	fmt.Fprintf(w, "%-10s %-20s %7s %12s %10s\n", "bodies", "policy", "ranks", "time (ms)", "speedup")
	net := ityr.DefaultNet(sc.CoresPerNode)
	for _, n := range []int{sc.FMMSmallN, sc.FMMBigN} {
		p := fmm.Params{N: n, Theta: sc.FMMTheta, NCrit: 32, NSpawn: sc.FMMNSpawn, Seed: 21}
		// Serial model from the real kernel counts.
		serial := rep.row(rowName("fig11", n, "serial"), func() Metrics {
			cells := fmm.BuildTree(fmm.GenBodies(n, p.Seed), p.NCrit)
			return Metrics{"sim_ns": float64(fmm.CountKernels(cells, p.Theta).SerialTime())}
		})
		fmt.Fprintf(w, "%-10d %-20s %7d %12.3f %10s\n", n, "(serial model)", 1, serial.ms(), "1.0")
		line := func(name any, ranks int, measure func() float64) {
			m := rep.row(rowName("fig11", n, name, ranks), func() Metrics {
				t := measure()
				return Metrics{"sim_ns": t, "speedup": serial["sim_ns"] / t}
			})
			fmt.Fprintf(w, "%-10d %-20s %7d %12.3f %10.1f\n", n, name, ranks, m.ms(), m["speedup"])
		}
		for _, pol := range ityr.Policies {
			for _, ranks := range sc.Ranks {
				line(pol, ranks, func() float64 {
					res, _ := runFMM(runtimeConfig(ranks, sc.CoresPerNode, pol, 29), p)
					return float64(res.EvalTime)
				})
			}
		}
		// MPI baseline at matching core counts.
		for _, ranks := range sc.Ranks {
			line("MPI", ranks, func() float64 {
				cores := min(sc.CoresPerNode, ranks) // a partially filled single node
				return float64(fmmmpi.Run(p, (ranks+cores-1)/cores, cores, net).Elapsed)
			})
		}
	}
}

// fig11Claims: every cached policy beats No Cache in every cell; Write-Back
// is never slower than Write-Through; lazy release does not help (in no
// cell is Lazy more than 1% faster than Write-Back); the bigger input
// scales better (a higher top-rank speedup under every policy); and
// Itoyori closes on the MPI version with scale (best policy's time ÷ MPI's
// on the bigger input is lower at the highest rank count than at the
// lowest).
func fig11Claims(rep *Report, sc Scale) Metrics {
	t := func(n int, pol any, ranks int) float64 { return rep.at("sim_ns", "fig11", n, pol, ranks) }
	lo, top := sc.Ranks[0], sc.Ranks[len(sc.Ranks)-1]
	small, big := sc.FMMSmallN, sc.FMMBigN
	beats, wbOverWT, lazyNoHelp, scales := true, true, true, true
	for _, n := range []int{small, big} {
		for _, ranks := range sc.Ranks {
			for _, pol := range ityr.Policies[1:] {
				beats = beats && t(n, pol, ranks) < t(n, ityr.NoCache, ranks)
			}
			wbOverWT = wbOverWT && t(n, ityr.WriteBack, ranks) <= t(n, ityr.WriteThrough, ranks)
			lazyNoHelp = lazyNoHelp && t(n, ityr.WriteBackLazy, ranks) >= 0.99*t(n, ityr.WriteBack, ranks)
		}
	}
	behindMPI := func(ranks int) float64 {
		best := t(big, ityr.NoCache, ranks)
		for _, pol := range ityr.Policies[1:] {
			best = min(best, t(big, pol, ranks))
		}
		return best / t(big, "MPI", ranks)
	}
	for _, pol := range ityr.Policies {
		scales = scales && rep.at("speedup", "fig11", big, pol, top) > rep.at("speedup", "fig11", small, pol, top)
	}
	return Metrics{
		"cache_beats_nocache":        verdict(beats),
		"wb_no_slower_than_wt":       verdict(wbOverWT),
		"lazy_does_not_help":         verdict(lazyNoHelp),
		"bigger_input_scales_better": verdict(scales),
		"closes_on_mpi_with_scale":   verdict(behindMPI(top) < behindMPI(lo)),
	}
}

// table2 regenerates Table 2: the idleness of the MPI ExaFMM per node
// count. Rows table2/<nodes>.
func table2(w io.Writer, rep *Report, sc Scale) {
	fmt.Fprintf(w, "\n== Table 2: Load balance in ExaFMM (MPI), %d bodies ==\n", sc.FMMBigN)
	fmt.Fprintf(w, "%12s %12s\n", "# of nodes", "idleness")
	p := fmm.Params{N: sc.FMMBigN, Theta: sc.FMMTheta, NCrit: 32, Seed: 21}
	for _, nodes := range sc.MPINodes {
		m := rep.row(rowName("table2", nodes), func() Metrics {
			return Metrics{"idleness": fmmmpi.Run(p, nodes, sc.CoresPerNode, ityr.DefaultNet(sc.CoresPerNode)).Idleness}
		})
		fmt.Fprintf(w, "%12d %12.2f\n", nodes, m["idleness"])
	}
}

// table2Claims: no idleness on one node, and idleness grows with the node
// count (never falls from one count to the next, and ends above where it
// starts).
func table2Claims(rep *Report, sc Scale) Metrics {
	idle := func(i int) float64 { return rep.at("idleness", "table2", sc.MPINodes[i]) }
	last := len(sc.MPINodes) - 1
	grows := idle(last) > idle(0)
	for i := 1; i <= last; i++ {
		grows = grows && idle(i) >= idle(i-1)
	}
	return Metrics{
		"zero_on_one_node": verdict(idle(0) == 0),
		"idleness_grows":   verdict(grows),
	}
}

// table1 prints the simulated environment, the analogue of Table 1, from
// the network model and runtime configuration every experiment is built on
// (row table1).
func table1(w io.Writer, rep *Report, sc Scale) {
	m := rep.row("table1", func() Metrics {
		net := ityr.DefaultNet(sc.CoresPerNode)
		mem := runtimeConfig(sc.FixedRanks, sc.CoresPerNode, ityr.WriteBackLazy, 0).Pgas
		return Metrics{
			"cores_per_node": float64(sc.CoresPerNode),
			"latency_ns":     float64(net.Latency), "bandwidth_gbps": net.Bandwidth, "atomic_rtt_ns": float64(net.AtomicRTT),
			"intra_latency_ns": float64(net.IntraLatency), "intra_bandwidth_gbps": net.IntraBandwidth,
			"block_bytes": float64(mem.BlockSize), "sub_block_bytes": float64(mem.SubBlockSize), "cache_bytes": float64(mem.CacheSize),
		}
	})
	fmt.Fprintf(w, "\n== Table 1: simulated experimental environment ==\n")
	fmt.Fprintf(w, "  Processor        simulated cores, analytic cost models (A64FX-flavoured)\n")
	fmt.Fprintf(w, "  Topology         %.0f cores/node\n", m["cores_per_node"])
	fmt.Fprintf(w, "  Network          latency %.0f ns, bandwidth %.1f GB/s/rank, atomic RTT %.0f ns (Tofu-D-flavoured)\n",
		m["latency_ns"], m["bandwidth_gbps"], m["atomic_rtt_ns"])
	fmt.Fprintf(w, "  Intra-node       latency %.0f ns, bandwidth %.1f GB/s (shared memory)\n",
		m["intra_latency_ns"], m["intra_bandwidth_gbps"])
	fmt.Fprintf(w, "  Memory blocks    %.0f KiB (sub-blocks %.0f KiB), cache %.0f MiB/process\n",
		m["block_bytes"]/1024, m["sub_block_bytes"]/1024, m["cache_bytes"]/(1<<20))
	fmt.Fprintf(w, "  Distribution     block-cyclic for collective allocations\n")
}

package bench

import (
	"fmt"
	"io"

	"ityr"
	"ityr/internal/apps/fmm"
	"ityr/internal/apps/fmmmpi"
	"ityr/internal/netmodel"
)

// Fig11 regenerates Figure 11: ExaFMM execution time, strong scaling for
// two body counts across the four cache policies plus the MPI baseline.
func Fig11(w io.Writer, sc Scale) []Row {
	fmt.Fprintf(w, "\n== Figure 11: FMM strong scaling (θ=%.2f, ncrit=32, nspawn=%d) ==\n",
		sc.FMMTheta, sc.FMMNSpawn)
	fmt.Fprintf(w, "%-10s %-20s %7s %12s %10s\n", "bodies", "policy", "ranks", "time (ms)", "speedup")
	var rows []Row
	net := netmodel.Default(sc.CoresPerNode)
	for _, n := range []int{sc.FMMSmallN, sc.FMMBigN} {
		p := fmm.Params{N: n, Theta: sc.FMMTheta, NCrit: 32, NSpawn: sc.FMMNSpawn, Seed: 21}
		// Serial model from the real kernel counts.
		bodies := fmm.GenBodies(n, p.Seed)
		cells := fmm.BuildTree(bodies, p.NCrit)
		serial := fmm.CountKernels(cells, p.Theta).SerialTime()
		fmt.Fprintf(w, "%-10d %-20s %7d %12.3f %10s\n", n, "(serial model)", 1, ms(serial), "1.0")
		for _, pol := range ityr.Policies {
			for _, ranks := range sc.Ranks {
				res, _ := runFMM(runtimeConfig(ranks, sc.CoresPerNode, pol, 29), p)
				t := res.EvalTime
				sp := float64(serial) / float64(t)
				fmt.Fprintf(w, "%-10d %-20s %7d %12.3f %10.1f\n", n, pol, ranks, ms(t), sp)
				rows = append(rows, Row{Fig: "11", Workload: fmt.Sprintf("fmm-%d", n),
					Policy: pol.String(), Ranks: ranks, Param: int64(n), Time: t, Value: sp})
			}
		}
		// MPI baseline at matching core counts.
		for _, ranks := range sc.Ranks {
			cores := sc.CoresPerNode
			if ranks < cores {
				cores = ranks // partially filled single node
			}
			nodes := (ranks + cores - 1) / cores
			r := fmmmpi.Run(p, nodes, cores, net)
			sp := float64(serial) / float64(r.Elapsed)
			fmt.Fprintf(w, "%-10d %-20s %7d %12.3f %10.1f\n", n, "MPI", ranks, ms(r.Elapsed), sp)
			rows = append(rows, Row{Fig: "11", Workload: fmt.Sprintf("fmm-%d", n),
				Policy: "MPI", Ranks: ranks, Param: int64(n), Time: r.Elapsed, Value: sp})
		}
	}
	return rows
}

// Table2 regenerates Table 2: the idleness of the MPI ExaFMM per node
// count.
func Table2(w io.Writer, sc Scale) []Row {
	fmt.Fprintf(w, "\n== Table 2: Load balance in ExaFMM (MPI), %d bodies ==\n", sc.FMMBigN)
	fmt.Fprintf(w, "%12s %12s\n", "# of nodes", "idleness")
	var rows []Row
	net := netmodel.Default(sc.CoresPerNode)
	p := fmm.Params{N: sc.FMMBigN, Theta: sc.FMMTheta, NCrit: 32, Seed: 21}
	for _, nodes := range sc.MPINodes {
		r := fmmmpi.Run(p, nodes, sc.CoresPerNode, net)
		fmt.Fprintf(w, "%12d %12.2f\n", nodes, r.Idleness)
		rows = append(rows, Row{Fig: "T2", Workload: "fmm-mpi", Policy: "MPI",
			Ranks: nodes * sc.CoresPerNode, Param: int64(nodes), Time: r.Elapsed, Value: r.Idleness})
	}
	return rows
}

// Table1 prints the simulated environment, the analogue of Table 1.
func Table1(w io.Writer, sc Scale) {
	net := netmodel.Default(sc.CoresPerNode)
	fmt.Fprintf(w, "\n== Table 1: simulated experimental environment ==\n")
	fmt.Fprintf(w, "  Processor        simulated cores, analytic cost models (A64FX-flavoured)\n")
	fmt.Fprintf(w, "  Topology         %d cores/node\n", sc.CoresPerNode)
	fmt.Fprintf(w, "  Network          latency %d ns, bandwidth %.1f GB/s/rank, atomic RTT %d ns (Tofu-D-flavoured)\n",
		net.Latency, net.Bandwidth, net.AtomicRTT)
	fmt.Fprintf(w, "  Intra-node       latency %d ns, bandwidth %.1f GB/s (shared memory)\n",
		net.IntraLatency, net.IntraBandwidth)
	fmt.Fprintf(w, "  Memory blocks    64 KiB (sub-blocks 4 KiB), cache 16 MiB/process\n")
	fmt.Fprintf(w, "  Distribution     block-cyclic for collective allocations\n")
}

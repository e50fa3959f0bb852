// Command fmm runs the ExaFMM-style N-body benchmark (§6.4) on the
// simulated cluster, optionally verifying against direct summation and
// comparing with the static MPI baseline.
//
//	fmm -n 10000 -theta 0.25 -ranks 32 -policy lazy -mpi
package main

import (
	"flag"
	"fmt"
	"os"

	"ityr"
	"ityr/internal/apps/fmm"
	"ityr/internal/apps/fmmmpi"
	"ityr/internal/obs"
)

func main() {
	n := flag.Int("n", 10000, "number of bodies")
	theta := flag.Float64("theta", 0.25, "multipole acceptance parameter")
	ncrit := flag.Int("ncrit", 32, "max bodies per leaf")
	nspawn := flag.Int("nspawn", 500, "task spawn threshold (bodies)")
	dist := flag.String("dist", "cube", "particle distribution: cube|sphere|plummer")
	verify := flag.Bool("verify", false, "verify against direct summation (O(N²) on the host)")
	mpi := flag.Bool("mpi", false, "also run the static MPI baseline model")
	obs.Main(42, "workload seed", func(cfg *ityr.Config) (obs.Body, error) {
		p := fmm.Params{N: *n, Theta: *theta, NCrit: *ncrit, NSpawn: *nspawn, Seed: cfg.Seed, Verify: *verify}
		switch *dist {
		case "cube":
			p.Dist = fmm.Cube
		case "sphere":
			p.Dist = fmm.Sphere
		case "plummer":
			p.Dist = fmm.Plummer
		default:
			return nil, fmt.Errorf("unknown distribution %q", *dist)
		}
		return func(rt *ityr.Runtime) (bool, error) {
			res, err := fmm.Run(rt, p)
			if err != nil {
				return false, err
			}
			bodies := fmm.GenBodiesDist(p.N, p.Seed, p.Dist)
			cells := fmm.BuildTree(bodies, p.NCrit)
			k := fmm.CountKernels(cells, p.Theta)
			serial := k.SerialTime()
			fmt.Printf("fmm: n=%d θ=%.2f ncrit=%d ranks=%d policy=%v\n", p.N, p.Theta, p.NCrit, cfg.Ranks, cfg.Pgas.Policy)
			fmt.Printf("  cells=%d  P2P pairs=%d  M2L=%d\n", len(cells), k.P2PPairs, k.M2L)
			fmt.Printf("  evaluate   %.3f ms (virtual), serial model %.3f ms -> speedup %.1fx\n",
				float64(res.EvalTime)/1e6, float64(serial)/1e6, float64(serial)/float64(res.EvalTime))
			fmt.Printf("  steals=%d cache: fetched %.2f MB, written back %.2f MB\n",
				rt.Sched().Stats.Steals,
				float64(rt.Space().Stats.FetchBytes)/1e6, float64(rt.Space().Stats.WriteBackBytes)/1e6)
			obs.SDCSummary(rt, 11)
			if p.Verify {
				ref := fmm.DirectHost(bodies)
				fmt.Printf("  accuracy   potential rel-RMS %.2e, accel rel-RMS %.2e\n",
					fmm.PotentialError(res.Bodies, ref), fmm.AccelError(res.Bodies, ref))
				if !res.Verified {
					fmt.Fprintln(os.Stderr, "MISMATCH: bodies differ from the host evaluation of the same tree")
				}
			}
			if *mpi {
				nodes := (cfg.Ranks + cfg.CoresPerNode - 1) / cfg.CoresPerNode
				r := fmmmpi.Run(p, nodes, cfg.CoresPerNode, ityr.DefaultNet(cfg.CoresPerNode))
				fmt.Printf("  MPI model  %.3f ms on %d nodes (idleness %.2f)\n",
					float64(r.Elapsed)/1e6, nodes, r.Idleness)
			}
			return res.Verified || !p.Verify, nil
		}, nil
	})
}

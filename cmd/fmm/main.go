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
	"ityr/internal/netmodel"
	"ityr/internal/obs"
)

func main() {
	n := flag.Int("n", 10000, "number of bodies")
	theta := flag.Float64("theta", 0.25, "multipole acceptance parameter")
	ncrit := flag.Int("ncrit", 32, "max bodies per leaf")
	nspawn := flag.Int("nspawn", 500, "task spawn threshold (bodies)")
	ranks := flag.Int("ranks", 32, "number of simulated ranks")
	cores := flag.Int("cores", 8, "cores (ranks) per node")
	policy := flag.String("policy", "lazy", "cache policy: nocache|wt|wb|lazy")
	seed := flag.Int64("seed", 42, "workload seed")
	dist := flag.String("dist", "cube", "particle distribution: cube|sphere|plummer")
	verify := flag.Bool("verify", false, "verify against direct summation (O(N²) on the host)")
	mpi := flag.Bool("mpi", false, "also run the static MPI baseline model")
	opts := obs.Register()
	flag.Parse()

	var pol ityr.Policy
	switch *policy {
	case "nocache":
		pol = ityr.NoCache
	case "wt":
		pol = ityr.WriteThrough
	case "wb":
		pol = ityr.WriteBack
	case "lazy":
		pol = ityr.WriteBackLazy
	default:
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", *policy)
		os.Exit(2)
	}
	var d fmm.Dist
	switch *dist {
	case "cube":
		d = fmm.Cube
	case "sphere":
		d = fmm.Sphere
	case "plummer":
		d = fmm.Plummer
	default:
		fmt.Fprintf(os.Stderr, "unknown distribution %q\n", *dist)
		os.Exit(2)
	}
	p := fmm.Params{N: *n, Theta: *theta, NCrit: *ncrit, NSpawn: *nspawn, Seed: *seed, Dist: d}

	cfg := ityr.Config{
		Ranks: *ranks, CoresPerNode: *cores,
		Pgas: ityr.PgasConfig{Policy: pol},
		Seed: *seed,
	}
	if err := opts.Apply(&cfg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rt := ityr.NewRuntime(cfg)
	var evalTime ityr.Time
	var result []fmm.Body
	err := rt.Run(func(s *ityr.SPMD) {
		var pr fmm.Problem
		if s.Rank() == 0 {
			pr = fmm.Setup(s, p)
		}
		s.Barrier()
		t0 := s.Now()
		s.RootExec(func(c *ityr.Ctx) { pr.Evaluate(c) })
		if s.Rank() == 0 {
			evalTime = s.Now() - t0
			if *verify {
				b, err := ityr.GetSlice(s, pr.Bodies)
				if err != nil {
					panic(err)
				}
				result = b
			}
		}
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	bodies := fmm.GenBodiesDist(p.N, p.Seed, p.Dist)
	cells := fmm.BuildTree(bodies, p.NCrit)
	k := fmm.CountKernels(cells, p.Theta)
	serial := k.SerialTime()
	fmt.Printf("fmm: n=%d θ=%.2f ncrit=%d ranks=%d policy=%v\n", *n, *theta, *ncrit, *ranks, pol)
	fmt.Printf("  cells=%d  P2P pairs=%d  M2L=%d\n", len(cells), k.P2PPairs, k.M2L)
	fmt.Printf("  evaluate   %.3f ms (virtual), serial model %.3f ms -> speedup %.1fx\n",
		float64(evalTime)/1e6, float64(serial)/1e6, float64(serial)/float64(evalTime))
	fmt.Printf("  steals=%d cache: fetched %.2f MB, written back %.2f MB\n",
		rt.Sched().Stats.Steals,
		float64(rt.Space().Stats.FetchBytes)/1e6, float64(rt.Space().Stats.WriteBackBytes)/1e6)
	if p := rt.Protector(); p != nil {
		st := p.Stats
		fmt.Printf("  sdc        protected=%d replicas=%d detected=%d recovered=%d escaped=%d\n",
			st.Protected, st.Replicas, st.Detected, st.Recovered, st.Escaped)
	}

	if *verify {
		ref := fmm.DirectHost(bodies)
		fmt.Printf("  accuracy   potential rel-RMS %.2e, accel rel-RMS %.2e\n",
			fmm.PotentialError(result, ref), fmm.AccelError(result, ref))
	}
	if *mpi {
		nodes := (*ranks + *cores - 1) / *cores
		r := fmmmpi.Run(p, nodes, *cores, netmodel.Default(*cores))
		fmt.Printf("  MPI model  %.3f ms on %d nodes (idleness %.2f)\n",
			float64(r.Elapsed)/1e6, nodes, r.Idleness)
	}
	if err := opts.Write(rt); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if opts.Validate && obs.ReportViolations(rt) {
		os.Exit(1)
	}
}

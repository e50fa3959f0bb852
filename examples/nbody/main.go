// N-body example: the paper's flagship case study (§6.4). Runs the
// ExaFMM-style Fast Multipole Method on a simulated cluster, verifies the
// result against direct summation, and compares cache policies — the
// global-view fork-join code is identical for every policy and rank count.
//
//	go run ./examples/nbody
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"ityr"
	"ityr/internal/apps/fmm"
)

func main() {
	if err := run(os.Stdout, 4000); err != nil {
		log.Fatal(err)
	}
}

// run evaluates n bodies under every cache policy.
func run(w io.Writer, n int) error {
	params := fmm.Params{N: n, Theta: 0.3, NCrit: 32, NSpawn: 200, Seed: 7}

	fmt.Fprintf(w, "FMM with %d bodies, θ=%.2f on 32 simulated ranks\n", params.N, params.Theta)
	for _, pol := range ityr.Policies {
		cfg := ityr.Config{
			Ranks:        32,
			CoresPerNode: 8,
			Pgas:         ityr.PgasConfig{Policy: pol},
			Seed:         3,
		}
		rt := ityr.NewRuntime(cfg)
		var elapsed ityr.Time
		var result []fmm.Body
		err := rt.Run(func(s *ityr.SPMD) {
			var pr fmm.Problem
			if s.Rank() == 0 {
				pr = fmm.Setup(s, params)
			}
			s.Barrier()
			t0 := s.Now()
			s.RootExec(func(c *ityr.Ctx) {
				pr.Evaluate(c)
			})
			if s.Rank() == 0 {
				elapsed = s.Now() - t0
				b, err := ityr.GetSlice(s, pr.Bodies)
				if err != nil {
					panic(err)
				}
				result = b
			}
		})
		if err != nil {
			return err
		}

		// Accuracy against O(N²) direct summation on the host.
		bodies := fmm.GenBodies(params.N, params.Seed)
		fmm.BuildTree(bodies, params.NCrit) // same tree ordering as the run
		ref := fmm.DirectHost(bodies)
		fmt.Fprintf(w, "  %-18s %9.3f ms   potential err %.1e\n",
			pol, float64(elapsed)/1e6, fmm.PotentialError(result, ref))
	}
	return nil
}

// Command cilksort runs the Cilksort benchmark (Fig. 1 / §6.2) on the
// simulated cluster.
//
//	cilksort -n 1048576 -cutoff 16384 -ranks 32 -policy lazy
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"ityr"
	"ityr/internal/apps/cilksort"
	"ityr/internal/obs"
)

func main() {
	n := flag.Int64("n", 1<<20, "number of 4-byte elements")
	cutoff := flag.Int64("cutoff", 16<<10, "serial cutoff")
	verify := flag.Bool("verify", true, "verify sortedness and checksum")
	profBreakdown := flag.Bool("prof", false, "print the profiler category breakdown (Fig. 9)")
	violate := flag.Bool("violate", false,
		"deliberately break the checkout discipline (write-under-read) instead of sorting — a demo workload for -validate; see EXPERIMENTS.md")
	obs.Main(1, "workload seed", func(cfg *ityr.Config) (obs.Body, error) {
		if *violate {
			if cfg.Sched.Policy != ityr.ChildFirst {
				return nil, errors.New("cilksort: -violate needs -sched childfirst: a thief must take the parent's continuation")
			}
			cfg.Pgas.Validate = true
			return func(rt *ityr.Runtime) (bool, error) { return writeUnderRead(rt, *n) }, nil
		}
		p := cilksort.Params{N: *n, Cutoff: *cutoff, Seed: uint64(cfg.Seed), Dist: ityr.BlockCyclicDist, Verify: *verify}
		return func(rt *ityr.Runtime) (bool, error) {
			res, err := cilksort.Run(rt, p)
			if err != nil {
				return false, err
			}
			serial := ityr.SortSerialTime(p.N)
			fmt.Printf("cilksort: n=%d cutoff=%d ranks=%d policy=%v\n", p.N, p.Cutoff, cfg.Ranks, cfg.Pgas.Policy)
			fmt.Printf("  sort time      %.3f ms (virtual)\n", float64(res.SortTime)/1e6)
			fmt.Printf("  serial model   %.3f ms  -> speedup %.1fx\n",
				float64(serial)/1e6, float64(serial)/float64(res.SortTime))
			fmt.Printf("  steals=%d forks=%d cache: fetched %.2f MB, written back %.2f MB\n",
				rt.Sched().Stats.Steals, rt.Sched().Stats.Forks,
				float64(rt.Space().Stats.FetchBytes)/1e6, float64(rt.Space().Stats.WriteBackBytes)/1e6)
			obs.SDCSummary(rt, 15)
			if p.Verify {
				fmt.Printf("  verify         %v\n", res.Verified)
			}
			if *profBreakdown {
				fmt.Print(rt.Profiler().Format(res.SortTime))
			}
			return res.Verified || !p.Verify, nil
		}, nil
	})
}

// writeUnderRead is -violate's body: a staged write-under-read on the first 64
// bytes of the arrays a sort of n elements would allocate. The forked child checks the range out read-only and
// holds the view for 100 µs of virtual compute; the parent's continuation
// is stolen by an idle rank (child-first scheduling) and checks the same
// bytes out for writing while the child still reads them — exactly the
// overlap the validator exists to catch. The run aborts there; Main prints
// the validator's report after the diagnostic, still writes any requested
// dumps (the trace embeds the same report for itytrace), and exits 1.
func writeUnderRead(rt *ityr.Runtime, n int64) (bool, error) {
	var vioErr error
	err := rt.Run(func(s *ityr.SPMD) {
		var a ityr.GSpan[cilksort.Elem]
		if s.Rank() == 0 {
			a = ityr.AllocArraySPMD[cilksort.Elem](s, n, ityr.BlockCyclicDist)
			ityr.AllocArraySPMD[cilksort.Elem](s, n, ityr.BlockCyclicDist) // the sort's buffer
		}
		s.Barrier()
		s.RootExec(func(c *ityr.Ctx) {
			base := a.Ptr.Addr()
			child := c.Fork(func(c *ityr.Ctx) {
				if _, cerr := c.Checkout(base, 64, ityr.Read); cerr != nil {
					vioErr = cerr
					return
				}
				c.Charge(100 * 1000) // "compute" on the view for 100 µs
				c.Checkin(base, 64, ityr.Read)
			})
			if _, cerr := c.Checkout(base, 64, ityr.ReadWrite); cerr != nil {
				vioErr = cerr
			} else {
				c.Checkin(base, 64, ityr.ReadWrite)
			}
			c.Join(child)
		})
	})
	if err != nil {
		return false, err
	}
	if vioErr != nil {
		fmt.Fprintln(os.Stderr, vioErr)
	}
	if len(rt.Space().Violations()) == 0 {
		return false, errors.New("cilksort: -violate tripped no violation (validator bug?)")
	}
	return false, nil
}

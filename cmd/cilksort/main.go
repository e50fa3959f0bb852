// Command cilksort runs the Cilksort benchmark (Fig. 1 / §6.2) on the
// simulated cluster.
//
//	cilksort -n 1048576 -cutoff 16384 -ranks 32 -policy lazy
package main

import (
	"flag"
	"fmt"
	"os"

	"ityr"
	"ityr/internal/apps/cilksort"
	"ityr/internal/obs"
)

func parsePolicy(s string) (ityr.Policy, error) {
	switch s {
	case "nocache":
		return ityr.NoCache, nil
	case "wt", "writethrough":
		return ityr.WriteThrough, nil
	case "wb", "writeback":
		return ityr.WriteBack, nil
	case "lazy", "wbl":
		return ityr.WriteBackLazy, nil
	}
	return 0, fmt.Errorf("unknown policy %q (nocache|wt|wb|lazy)", s)
}

func main() {
	n := flag.Int64("n", 1<<20, "number of 4-byte elements")
	cutoff := flag.Int64("cutoff", 16<<10, "serial cutoff")
	ranks := flag.Int("ranks", 32, "number of simulated ranks")
	cores := flag.Int("cores", 8, "cores (ranks) per node")
	policy := flag.String("policy", "lazy", "cache policy: nocache|wt|wb|lazy")
	seed := flag.Int64("seed", 1, "workload seed")
	verify := flag.Bool("verify", true, "verify sortedness and checksum")
	profBreakdown := flag.Bool("prof", false, "print the profiler category breakdown (Fig. 9)")
	traceFile := flag.String("tracefile", "", "write a Chrome-tracing JSON event log to this file")
	opts := obs.Register()
	violate := flag.Bool("violate", false,
		"deliberately break the checkout discipline (write-under-read) instead of sorting — a demo workload for -validate; see EXPERIMENTS.md")
	flag.Parse()

	pol, err := parsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := ityr.Config{
		Ranks:        *ranks,
		CoresPerNode: *cores,
		Pgas:         ityr.PgasConfig{Policy: pol},
		Seed:         *seed,
		Trace:        *traceFile != "",
	}
	if err := opts.Apply(&cfg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.Pgas.Validate = cfg.Pgas.Validate || *violate
	rt := ityr.NewRuntime(cfg)
	var sortTime ityr.Time
	ok := true
	var vioErr error
	err = rt.Run(func(s *ityr.SPMD) {
		var a, b ityr.GSpan[cilksort.Elem]
		if s.Rank() == 0 {
			a = ityr.AllocArraySPMD[cilksort.Elem](s, *n, ityr.BlockCyclicDist)
			b = ityr.AllocArraySPMD[cilksort.Elem](s, *n, ityr.BlockCyclicDist)
		}
		s.Barrier()
		if *violate {
			// Staged write-under-read on a[0:16) (64 bytes): the forked
			// child checks the range out read-only and holds the view for
			// 100 µs of virtual compute; the parent's continuation is
			// stolen by an idle rank (child-first scheduling) and checks
			// the same bytes out for writing while the child still reads
			// them — exactly the overlap the validator exists to catch.
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
			return
		}
		var before, after int64
		s.RootExec(func(c *ityr.Ctx) { cilksort.Generate(c, a, uint64(*seed)) })
		if *verify {
			s.RootExec(func(c *ityr.Ctx) { before = cilksort.Checksum(c, a) })
		}
		rt.Profiler().ResetRank(s.Rank())
		t0 := s.Now()
		s.RootExec(func(c *ityr.Ctx) { cilksort.Sort(c, a, b, *cutoff) })
		if s.Rank() == 0 {
			sortTime = s.Now() - t0
		}
		if *verify {
			s.RootExec(func(c *ityr.Ctx) {
				after = cilksort.Checksum(c, a)
				if !cilksort.IsSorted(c, a) || before != after {
					ok = false
				}
			})
		}
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *violate {
		// The run aborted at the injected violation: print the diagnostic
		// and the validator report, still write any requested dumps (the
		// trace embeds the same report for itytrace), and fail the run.
		if vioErr != nil {
			fmt.Fprintln(os.Stderr, vioErr)
		}
		caught := obs.ReportViolations(rt)
		if werr := opts.Write(rt); werr != nil {
			fmt.Fprintln(os.Stderr, werr)
		}
		if caught {
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "cilksort: -violate tripped no violation (validator bug?)")
		os.Exit(2)
	}
	fmt.Printf("cilksort: n=%d cutoff=%d ranks=%d policy=%v\n", *n, *cutoff, *ranks, pol)
	fmt.Printf("  sort time      %.3f ms (virtual)\n", float64(sortTime)/1e6)
	fmt.Printf("  serial model   %.3f ms  -> speedup %.1fx\n",
		float64(cilksort.SerialTime(*n))/1e6, float64(cilksort.SerialTime(*n))/float64(sortTime))
	fmt.Printf("  steals=%d forks=%d cache: fetched %.2f MB, written back %.2f MB\n",
		rt.Sched().Stats.Steals, rt.Sched().Stats.Forks,
		float64(rt.Space().Stats.FetchBytes)/1e6, float64(rt.Space().Stats.WriteBackBytes)/1e6)
	if p := rt.Protector(); p != nil {
		st := p.Stats
		fmt.Printf("  sdc            protected=%d replicas=%d detected=%d recovered=%d escaped=%d\n",
			st.Protected, st.Replicas, st.Detected, st.Recovered, st.Escaped)
	}
	exitCode := 0
	if *verify {
		fmt.Printf("  verify         %v\n", ok)
		if !ok {
			// Still write the requested dumps below: a corrupted run (e.g.
			// the -sdc negative control) is exactly the one whose trace and
			// metrics are worth inspecting.
			exitCode = 1
		}
	}
	if *profBreakdown {
		fmt.Print(rt.Profiler().Format(sortTime))
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := rt.Trace().ChromeJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("  trace          %d events -> %s\n", rt.Trace().Len(), *traceFile)
	}
	if err := opts.Write(rt); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if opts.Validate && obs.ReportViolations(rt) && exitCode == 0 {
		exitCode = 1
	}
	os.Exit(exitCode)
}

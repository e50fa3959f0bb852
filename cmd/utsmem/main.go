// Command utsmem runs the UTS-Mem benchmark (§6.3): build an unbalanced
// tree in global memory, then measure the pointer-chasing traversal.
//
//	utsmem -tree t1l -ranks 32 -policy lazy
package main

import (
	"flag"
	"fmt"
	"os"

	"ityr"
	"ityr/internal/apps/uts"
	"ityr/internal/obs"
)

func main() {
	treeName := flag.String("tree", "t1l", "workload tree: t1l | t1xl")
	ranks := flag.Int("ranks", 32, "number of simulated ranks")
	cores := flag.Int("cores", 8, "cores (ranks) per node")
	policy := flag.String("policy", "lazy", "cache policy: nocache|wt|wb|lazy")
	seed := flag.Int64("seed", 1, "scheduler seed")
	classic := flag.Bool("classic", false, "run the original memory-free UTS instead of UTS-Mem")
	opts := obs.Register()
	flag.Parse()

	var tree uts.Tree
	switch *treeName {
	case "t1l":
		tree = uts.T1LPrime
	case "t1xl":
		tree = uts.T1XLPrime
	default:
		fmt.Fprintf(os.Stderr, "unknown tree %q\n", *treeName)
		os.Exit(2)
	}
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
	var buildTime, travTime ityr.Time
	var built, counted int64
	err := rt.Run(func(s *ityr.SPMD) {
		if *classic {
			t0 := s.Now()
			s.RootExec(func(c *ityr.Ctx) { counted = uts.CountParallel(c, tree) })
			if s.Rank() == 0 {
				travTime = s.Now() - t0
			}
			built = counted
			return
		}
		var root ityr.GPtr[uts.Node]
		t0 := s.Now()
		s.RootExec(func(c *ityr.Ctx) { root, built = uts.Build(c, tree) })
		t1 := s.Now()
		s.RootExec(func(c *ityr.Ctx) { counted = uts.Traverse(c, root) })
		if s.Rank() == 0 {
			buildTime, travTime = t1-t0, s.Now()-t1
		}
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	name := "uts-mem"
	if *classic {
		name = "uts-classic"
	}
	fmt.Printf("%s: tree=%s (%d nodes) ranks=%d policy=%v\n", name, tree.Name, built, *ranks, pol)
	fmt.Printf("  build      %.3f ms\n", float64(buildTime)/1e6)
	fmt.Printf("  traverse   %.3f ms  -> %.0f nodes/s\n",
		float64(travTime)/1e6, float64(counted)/(float64(travTime)/1e9))
	fmt.Printf("  steals=%d cache: fetched %.2f MB (%.0f%% hit by bytes)\n",
		rt.Sched().Stats.Steals, float64(rt.Space().Stats.FetchBytes)/1e6,
		100*float64(rt.Space().Stats.HitBytes)/float64(rt.Space().Stats.HitBytes+rt.Space().Stats.FetchBytes+1))
	if p := rt.Protector(); p != nil {
		st := p.Stats
		fmt.Printf("  sdc        protected=%d replicas=%d detected=%d recovered=%d escaped=%d\n",
			st.Protected, st.Replicas, st.Detected, st.Recovered, st.Escaped)
	}
	exitCode := 0
	if counted != built {
		// Still write the requested dumps: a corrupted count (e.g. the
		// -sdc negative control) is exactly the run worth inspecting.
		fmt.Fprintf(os.Stderr, "MISMATCH: built %d, traversed %d\n", built, counted)
		exitCode = 1
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

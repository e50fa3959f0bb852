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
	classic := flag.Bool("classic", false, "run the original memory-free UTS instead of UTS-Mem")
	obs.Main(1, "scheduler seed", func(cfg *ityr.Config) (obs.Body, error) {
		var tree uts.Tree
		switch *treeName {
		case "t1l":
			tree = uts.T1LPrime
		case "t1xl":
			tree = uts.T1XLPrime
		default:
			return nil, fmt.Errorf("unknown tree %q", *treeName)
		}
		return func(rt *ityr.Runtime) (bool, error) {
			name, run := "uts-mem", uts.Run
			if *classic {
				name, run = "uts-classic", countClassic
			}
			res, err := run(rt, uts.Params{Tree: tree})
			if err != nil {
				return false, err
			}
			fmt.Printf("%s: tree=%s (%d nodes) ranks=%d policy=%v\n", name, tree.Name, res.Built, cfg.Ranks, cfg.Pgas.Policy)
			fmt.Printf("  build      %.3f ms\n", float64(res.BuildTime)/1e6)
			fmt.Printf("  traverse   %.3f ms  -> %.0f nodes/s\n",
				float64(res.TraverseTime)/1e6, float64(res.Counted)/(float64(res.TraverseTime)/1e9))
			fmt.Printf("  steals=%d cache: fetched %.2f MB (%.0f%% hit by bytes)\n",
				rt.Sched().Stats.Steals, float64(rt.Space().Stats.FetchBytes)/1e6,
				100*float64(rt.Space().Stats.HitBytes)/float64(rt.Space().Stats.HitBytes+rt.Space().Stats.FetchBytes+1))
			obs.SDCSummary(rt, 11)
			if !res.Verified {
				fmt.Fprintf(os.Stderr, "MISMATCH: built %d, traversed %d\n", res.Built, res.Counted)
			}
			return res.Verified, nil
		}, nil
	})
}

// countClassic is -classic's run: the original UTS, which counts a tree it
// never builds, reported as a traversal of as many nodes as it counted.
func countClassic(rt *ityr.Runtime, p uts.Params) (uts.Result, error) {
	var res uts.Result
	err := rt.Run(func(s *ityr.SPMD) {
		t0 := s.Now()
		s.RootExec(func(c *ityr.Ctx) { res.Counted = uts.CountParallel(c, p.Tree) })
		if s.Rank() == 0 {
			res.TraverseTime = s.Now() - t0
		}
	})
	res.Built, res.Verified = res.Counted, true
	return res, err
}

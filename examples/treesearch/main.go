// Tree search example: builds an unbalanced tree of linked objects in the
// global heap (noncollective allocation from whatever rank runs each task)
// and then searches it in parallel by chasing global pointers — the
// UTS-Mem access pattern of §6.3, where the software cache turns scattered
// fine-grained remote reads into block-granularity fetches.
//
//	go run ./examples/treesearch
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"ityr"
	"ityr/internal/apps/uts"
)

func main() {
	if err := run(os.Stdout, uts.Tree{Name: "demo", Seed: 11, RootKids: 500, MeanKids: 0.97, MaxDepth: 500}); err != nil {
		log.Fatal(err)
	}
}

// run builds and searches tree under two cache policies.
func run(w io.Writer, tree uts.Tree) error {
	fmt.Fprintf(w, "unbalanced tree with %d nodes on 16 simulated ranks\n", uts.CountHost(tree))

	for _, pol := range []ityr.Policy{ityr.NoCache, ityr.WriteBackLazy} {
		cfg := ityr.Config{
			Ranks:        16,
			CoresPerNode: 4, // 4 nodes x 4 cores: most memory is remote
			Pgas:         ityr.PgasConfig{Policy: pol},
			Seed:         2,
		}
		rt := ityr.NewRuntime(cfg)
		var buildMS, travMS float64
		var count int64
		err := rt.Run(func(s *ityr.SPMD) {
			var root ityr.GPtr[uts.Node]
			t0 := s.Now()
			s.RootExec(func(c *ityr.Ctx) {
				root, _ = uts.Build(c, tree)
			})
			t1 := s.Now()
			s.RootExec(func(c *ityr.Ctx) {
				count = uts.Traverse(c, root)
			})
			if s.Rank() == 0 {
				buildMS = float64(t1-t0) / 1e6
				travMS = float64(s.Now()-t1) / 1e6
			}
		})
		if err != nil {
			return err
		}
		st := rt.Space().Stats
		fmt.Fprintf(w, "  %-18s build %8.3f ms, traverse %8.3f ms (%d nodes, %.2f MB fetched, %d steals)\n",
			pol, buildMS, travMS, count, float64(st.FetchBytes)/1e6, rt.Sched().Stats.Steals)
	}
	return nil
}

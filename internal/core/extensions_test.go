package core

import (
	"encoding/binary"
	"fmt"
	"testing"

	"ityr/internal/pgas"
)

// TestDAGConsistencyWithExtensions re-runs the central coherence test with
// locality-aware stealing off and on — the extension must not weaken
// SC-for-DRF.
func TestDAGConsistencyWithExtensions(t *testing.T) {
	const depth = 7
	for _, locality := range []bool{false, true} {
		for _, pol := range []pgas.Policy{pgas.WriteThrough, pgas.WriteBackLazy} {
			t.Run(fmt.Sprintf("loc=%v/%v", locality, pol), func(t *testing.T) {
				cfg := cfgFor(8, pol, 31)
				cfg.CoresPerNode = 4
				cfg.Sched.LocalityAware = locality
				rt := NewRuntime(cfg)
				var rootVal int64
				nNodes := int64(1<<(depth+1)) - 1
				err := rt.Run(func(s *SPMD) {
					var base pgas.Addr
					if s.Rank() == 0 {
						base = s.AllocCollective(uint64(nNodes*8), pgas.BlockCyclicDist)
					}
					s.Barrier()
					s.RootExec(func(c *Ctx) {
						dagNode(c, base, 0, depth)
						v := c.MustCheckout(base, 8, pgas.Read)
						rootVal = int64(binary.LittleEndian.Uint64(v))
						c.Checkin(base, 8, pgas.Read)
					})
				})
				if err != nil {
					t.Fatal(err)
				}
				if want := int64(1 << depth); rootVal != want {
					t.Fatalf("root = %d, want %d", rootVal, want)
				}
			})
		}
	}
}

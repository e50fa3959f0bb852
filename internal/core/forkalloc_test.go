package core

import (
	"fmt"
	"math"
	"testing"

	"ityr/internal/pgas"
)

// forkTree forks a binary tree of leaves leaves and joins it; each fork's
// body is a closure over the subtree size.
func forkTree(c *Ctx, leaves int) {
	if leaves == 1 {
		return
	}
	half := leaves / 2
	th := c.Fork(func(c *Ctx) { forkTree(c, half) })
	forkTree(c, leaves-half)
	c.Join(th)
}

// TestForkAllocations pins the heap objects one child-first Fork makes:
// the caller's closure, core's closure and the child's Ctx, the child's
// thread (its continuation entry, TB and join handle embedded), and the
// child's sim.Proc with the closure that starts it. A region that runs the
// tree twice is differenced against one that runs it once, which takes out
// what a region costs whatever it forks: its set-up, and the coroutines its
// deepest moment needs, which the engine pools until the region ends. On
// several ranks the two trees steal differently, which moves a few objects
// a region (under 0.05 a fork), so the count is held in whole objects: one
// more object a fork fails it.
func TestForkAllocations(t *testing.T) {
	const leaves, budget = 4096, 6
	for _, ranks := range []int{1, 8} {
		t.Run(fmt.Sprintf("%dr", ranks), func(t *testing.T) {
			rt := NewRuntime(cfgFor(ranks, pgas.WriteBackLazy, 7))
			run := func(trees int) float64 {
				return testing.AllocsPerRun(3, func() {
					_, err := rt.RunRoot(func(c *Ctx) {
						for range trees {
							forkTree(c, leaves)
						}
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
			perFork := (run(2) - run(1)) / (leaves - 1)
			t.Logf("%d ranks: %.2f allocations per fork (budget %d)", ranks, perFork, budget)
			if math.Round(perFork) > budget {
				t.Errorf("a child-first fork makes %.2f heap allocations, over the budget of %d", perFork, budget)
			}
		})
	}
}

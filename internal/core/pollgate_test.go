package core

import (
	"fmt"
	"reflect"
	"testing"

	"ityr/internal/pgas"
	"ityr/internal/sim"
)

// TestLazyPollAnswersFromOwnerState holds the lazy-release poll to what it
// answers from the owner's own epoch state (pgas.Local.PollPending). Rank 0
// dirties data homed on rank 1, forks (handing out a release handler) and
// runs a leaf of banked charges, polling after each the way Fork and Join
// do, with no Sync of its own; rank 1 steals the continuation, and its
// acquire's write-back request lands inside one of rank 0's banks. The
// banked run must answer the request at the poll, and the instant, that
// the unbanked run does — a poll that reads requestEpoch without taking
// the bank first answers a later poll — and must answer it inside the
// leaf, not when the child completes (a rank that forgot the handler it
// handed out never sees the request). Once answered, rank 0 owes nothing,
// and its polls may not take its bank: no handoff across the call. At the
// end every rank's epoch copy equals its window word.
func TestLazyPollAnswersFromOwnerState(t *testing.T) {
	const polls = 40
	run := func(bank bool) []string {
		rt := NewRuntime(Config{
			Ranks:        2,
			CoresPerNode: 1, // rank 1's block is remote: its writes stay dirty in rank 0's cache
			Pgas:         pgas.Config{BlockSize: 512, SubBlockSize: 64, CacheSize: 16384, Policy: pgas.WriteBackLazy},
			Seed:         3,
		})
		if !bank {
			rt.Engine().NoBank()
		}
		var samples []string
		answered, owedNothing := -1, 0
		_, err := rt.RunRoot(func(c *Ctx) {
			base := c.Local().AllocCollective(1024, pgas.BlockCyclicDist)
			v := c.MustCheckout(base+512, 64, pgas.Write) // homed on rank 1
			v[0] = 1
			c.Checkin(base+512, 64, pgas.Write)
			th := c.Fork(func(c *Ctx) {
				l := c.Local()
				for i := 0; i < polls; i++ {
					c.Charge(sim.Time(1500 + 37*(i%3)))
					if e, owed := l.EpochState(); owed <= e {
						h := rt.Engine().Stats().Handoffs
						if l.PollPending() {
							t.Errorf("poll %d: a rank owing nothing (epoch %d, owed %d) has a write-back pending", i, e, owed)
						}
						if d := rt.Engine().Stats().Handoffs - h; d != 0 {
							t.Errorf("poll %d: a rank owing nothing took %d handoffs to answer PollPending", i, d)
						}
						owedNothing++
					}
					before, _ := l.EpochState()
					l.Poll()
					if e, _ := l.EpochState(); e != before {
						answered = i
						samples = append(samples, fmt.Sprintf("poll %d wrote back at %d: epoch %d", i, c.Now(), e))
					}
				}
			})
			samples = append(samples, fmt.Sprintf("continuation on rank %d at %d", c.RankID(), c.Now()))
			if g := c.MustCheckout(base+512, 64, pgas.Read); g[0] != 1 {
				t.Errorf("the continuation read %d, want 1", g[0])
			}
			c.Checkin(base+512, 64, pgas.Read)
			c.Join(th)
		})
		if err != nil {
			t.Fatal(err)
		}
		if answered < 0 || answered == polls-1 || owedNothing == 0 {
			t.Fatalf("bank=%v: the write-back request was answered at poll %d of %d (%d polls owed nothing); want one inside the leaf: %q",
				bank, answered, polls, owedNothing, samples)
		}
		for r := 0; r < 2; r++ {
			l := rt.Space().Local(r)
			if e, _ := l.EpochState(); e != l.CurrentEpoch() {
				t.Errorf("bank=%v: rank %d's epoch copy is %d, its window word %d", bank, r, e, l.CurrentEpoch())
			}
		}
		return samples
	}
	banked, unbanked := run(true), run(false)
	if !reflect.DeepEqual(banked, unbanked) {
		t.Fatalf("banked run:\n%q\nunbanked run:\n%q", banked, unbanked)
	}
	t.Logf("%q", banked)
}

// TestJoinOfDoneChildTakesNoBank: a Join that finds its child done, on its
// own rank, reads done without taking the joining thread's bank (uth's
// Join). Rank 1 steals the root's continuation and runs it, a process of
// its own, so a bank taken on rank 0 would hand off to it; meanwhile rank
// 0's thread forks a child that is done before anyone can steal, banks a
// charge and joins it.
func TestJoinOfDoneChildTakesNoBank(t *testing.T) {
	rt := NewRuntime(cfgFor(2, pgas.WriteBackLazy, 3))
	handoffs := ^uint64(0)
	_, err := rt.RunRoot(func(c *Ctx) {
		th := c.Fork(func(c *Ctx) {
			c.Charge(50 * sim.Microsecond)
			c.Yield() // the steal lands
			inner := c.Fork(func(*Ctx) {})
			c.Charge(200 * sim.Microsecond)
			h := rt.Engine().Stats().Handoffs
			c.Join(inner)
			handoffs = rt.Engine().Stats().Handoffs - h
		})
		if c.RankID() != 1 {
			t.Errorf("the root's continuation ran on rank %d, want it stolen by rank 1", c.RankID())
		}
		for i := 0; i < 100; i++ {
			c.Charge(10 * sim.Microsecond)
			c.Yield()
		}
		c.Join(th)
	})
	if err != nil {
		t.Fatal(err)
	}
	if handoffs != 0 {
		t.Errorf("joining a done child took %d handoffs", handoffs)
	}
}

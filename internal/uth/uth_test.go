package uth

import (
	"testing"

	"ityr/internal/netmodel"
	"ityr/internal/pgas"
	"ityr/internal/rma"
	"ityr/internal/sim"
)

// runRegion executes body as the root thread of a fork-join region over
// nranks ranks and returns the scheduler and the elapsed virtual time.
func runRegion(t *testing.T, nranks int, hooks Hooks, body func(*TB)) (*Sched, sim.Time) {
	t.Helper()
	e := sim.NewEngine()
	c := rma.New(e, nranks, netmodel.Default(4))
	s := NewSched(c, Config{}, 42, hooks)
	var elapsed sim.Time
	for i := 0; i < nranks; i++ {
		i := i
		r := c.Rank(i)
		e.Spawn("spmd", func(p *sim.Proc) {
			r.Attach(p)
			start := p.Now()
			s.WorkerMain(i, body)
			if i == 0 {
				elapsed = p.Now() - start
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return s, elapsed
}

func TestSingleRankForkJoin(t *testing.T) {
	sum := 0
	s, _ := runRegion(t, 1, nil, func(tb *TB) {
		var results [4]int
		var ths [4]*Thread
		for i := 0; i < 4; i++ {
			i := i
			ths[i] = tb.Fork(func(tb *TB) {
				tb.Proc().Advance(100)
				results[i] = i + 1
			})
		}
		for _, th := range ths {
			tb.Join(th)
		}
		for _, r := range results {
			sum += r
		}
	})
	if sum != 10 {
		t.Fatalf("sum = %d, want 10", sum)
	}
	if s.Stats.Steals != 0 {
		t.Fatalf("steals on single rank = %d", s.Stats.Steals)
	}
	if s.Stats.Forks != 4 {
		t.Fatalf("forks = %d, want 4", s.Stats.Forks)
	}
}

// fib computes fibonacci with fork-join, charging compute time per call.
func fib(tb *TB, n int) int {
	tb.Proc().Advance(3 * sim.Microsecond)
	if n < 2 {
		return n
	}
	var a int
	th := tb.Fork(func(tb *TB) { a = fib(tb, n-1) })
	b := fib(tb, n-2)
	tb.Join(th)
	return a + b
}

func TestDistributedFibCorrect(t *testing.T) {
	var got int
	s, _ := runRegion(t, 4, nil, func(tb *TB) {
		got = fib(tb, 13)
	})
	if got != 233 {
		t.Fatalf("fib(13) = %d, want 233", got)
	}
	if s.Stats.Steals == 0 {
		t.Fatal("expected at least one steal on 4 ranks")
	}
}

func TestParallelSpeedup(t *testing.T) {
	// 64 independent 100 µs tasks forked in a binary tree on 8 ranks.
	const taskTime = 100 * sim.Microsecond
	var spawn func(tb *TB, n int)
	spawn = func(tb *TB, n int) {
		if n == 1 {
			tb.Proc().Advance(taskTime)
			return
		}
		th := tb.Fork(func(tb *TB) { spawn(tb, n/2) })
		spawn(tb, n-n/2)
		tb.Join(th)
	}
	_, elapsed1 := runRegion(t, 1, nil, func(tb *TB) { spawn(tb, 64) })
	_, elapsed8 := runRegion(t, 8, nil, func(tb *TB) { spawn(tb, 64) })
	if elapsed1 < 64*taskTime {
		t.Fatalf("serial run too fast: %d < %d", elapsed1, 64*taskTime)
	}
	speedup := float64(elapsed1) / float64(elapsed8)
	if speedup < 3 {
		t.Fatalf("8-rank speedup = %.2f, want >= 3 (e1=%v e8=%v)", speedup, elapsed1, elapsed8)
	}
}

func TestDeterministicSchedule(t *testing.T) {
	run := func() (Stats, sim.Time) {
		s, el := runRegion(t, 4, nil, func(tb *TB) { fib(tb, 12) })
		return s.Stats, el
	}
	s1, e1 := run()
	s2, e2 := run()
	if s1 != s2 || e1 != e2 {
		t.Fatalf("nondeterministic: %+v @%d vs %+v @%d", s1, e1, s2, e2)
	}
}

func TestThreadMigrationObservable(t *testing.T) {
	ranksSeen := map[int]bool{}
	var rec func(tb *TB, depth int)
	rec = func(tb *TB, depth int) {
		ranksSeen[tb.RankID()] = true
		tb.Proc().Advance(20 * sim.Microsecond)
		if depth == 0 {
			return
		}
		th := tb.Fork(func(tb *TB) { rec(tb, depth-1) })
		rec(tb, depth-1)
		tb.Join(th)
		ranksSeen[tb.RankID()] = true
	}
	s, _ := runRegion(t, 8, nil, func(tb *TB) { rec(tb, 7) })
	if s.Stats.Steals == 0 {
		t.Skip("no steals occurred; migration unobservable")
	}
	if len(ranksSeen) < 2 {
		t.Fatalf("work never left rank 0 despite %d steals", s.Stats.Steals)
	}
}

// traceHooks records the sequence of hook invocations.
type traceHooks struct {
	forks, steals, suspends, childDone, migrates, polls int
	handedOut                                           []pgas.ReleaseHandler
	handedBack                                          []pgas.ReleaseHandler
}

func (h *traceHooks) Poll(int)             { h.polls++ }
func (h *traceHooks) PollPending(int) bool { return false }
func (h *traceHooks) OnFork(rank int) pgas.ReleaseHandler {
	h.forks++
	v := pgas.ReleaseHandler{Rank: rank, Epoch: uint64(h.forks), Needed: true}
	h.handedOut = append(h.handedOut, v)
	return v
}
func (h *traceHooks) OnSteal(rank int, handler pgas.ReleaseHandler) {
	h.steals++
	h.handedBack = append(h.handedBack, handler)
}
func (h *traceHooks) OnSuspend(int)         { h.suspends++ }
func (h *traceHooks) OnChildStolenDone(int) { h.childDone++ }
func (h *traceHooks) OnMigrateArrive(int)   { h.migrates++ }

func TestHooksWiredCorrectly(t *testing.T) {
	h := &traceHooks{}
	s, _ := runRegion(t, 4, h, func(tb *TB) { fib(tb, 12) })
	if h.forks == 0 || h.polls == 0 {
		t.Fatal("fork/poll hooks never fired")
	}
	if uint64(h.steals) != s.Stats.Steals {
		t.Fatalf("OnSteal fired %d times for %d steals", h.steals, s.Stats.Steals)
	}
	// Every handler passed to OnSteal must be one that OnFork handed out.
	out := map[pgas.ReleaseHandler]bool{}
	for _, v := range h.handedOut {
		out[v] = true
	}
	for _, v := range h.handedBack {
		if !out[v] {
			t.Fatalf("OnSteal received handler %v never issued by OnFork", v)
		}
	}
	if s.Stats.Steals > 0 && h.childDone == 0 {
		t.Fatal("steals occurred but Release #2 (OnChildStolenDone) never fired")
	}
}

func TestSequentialRegions(t *testing.T) {
	e := sim.NewEngine()
	c := rma.New(e, 2, netmodel.Default(2))
	s := NewSched(c, Config{}, 1, nil)
	total := 0
	for i := 0; i < 2; i++ {
		r := c.Rank(i)
		i := i
		e.Spawn("spmd", func(p *sim.Proc) {
			r.Attach(p)
			for region := 0; region < 3; region++ {
				s.WorkerMain(i, func(tb *TB) {
					th := tb.Fork(func(tb *TB) { tb.Proc().Advance(50); total++ })
					tb.Join(th)
					total++
				})
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if total != 6 {
		t.Fatalf("total = %d, want 6 across 3 regions", total)
	}
}

func TestNestedJoinAfterBlockedParent(t *testing.T) {
	// A join that genuinely blocks: the child sleeps far longer than the
	// parent's remaining work, so the parent must suspend and be migrated
	// to the child's completion.
	order := []string{}
	s, _ := runRegion(t, 2, nil, func(tb *TB) {
		th := tb.Fork(func(tb *TB) {
			tb.Proc().Advance(5 * sim.Millisecond)
			order = append(order, "child")
		})
		// If the continuation was stolen, this runs on rank 1 while the
		// child still computes on rank 0.
		tb.Proc().Advance(10 * sim.Microsecond)
		order = append(order, "parent-before-join")
		tb.Join(th)
		order = append(order, "parent-after-join")
	})
	want := []string{"parent-before-join", "child", "parent-after-join"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v, want %v (steals=%d)", order, want, s.Stats.Steals)
	}
}

func TestManyTasksStress(t *testing.T) {
	count := 0
	var spawn func(tb *TB, n int)
	spawn = func(tb *TB, n int) {
		if n == 0 {
			tb.Proc().Advance(1 * sim.Microsecond)
			count++
			return
		}
		l := tb.Fork(func(tb *TB) { spawn(tb, n-1) })
		r := tb.Fork(func(tb *TB) { spawn(tb, n-1) })
		tb.Join(l)
		tb.Join(r)
	}
	s, _ := runRegion(t, 6, nil, func(tb *TB) { spawn(tb, 10) })
	if count != 1024 {
		t.Fatalf("leaf count = %d, want 1024", count)
	}
	if s.Stats.Forks != 2*1024-2 {
		t.Fatalf("forks = %d, want %d", s.Stats.Forks, 2*1024-2)
	}
}

// TestCurrentTIDNamesTokenHolder: CurrentTID(rank) names the thread holding
// the rank's token after a steal, after a join migration and after an FBC
// in-place wake, and reads 0 on every rank once the region ends.
func TestCurrentTIDNamesTokenHolder(t *testing.T) {
	check := func(s *Sched, rank int, want int64, when string) {
		t.Helper()
		if got := s.CurrentTID(rank); got != want {
			t.Errorf("%s: CurrentTID(%d) = %d, want %d", when, rank, got, want)
		}
	}
	regionOver := func(s *Sched) {
		t.Helper()
		for r := range s.workers {
			check(s, r, 0, "after the region")
		}
	}

	// Child-first: the child keeps rank 0 busy while rank 1 steals the
	// root's continuation; the root then joins the still-running child and
	// migrates back to rank 0 when it completes.
	s, _ := runRegionCfg(t, 2, Config{}, nil, func(tb *TB) {
		s, root := tb.Sched(), tb.th.tid
		th := tb.Fork(func(cb *TB) {
			cb.Proc().Advance(100 * sim.Microsecond)
			check(s, 0, cb.th.tid, "child on its rank")
		})
		if tb.RankID() != 1 {
			t.Fatalf("the continuation resumed on rank %d, want a steal to rank 1", tb.RankID())
		}
		check(s, 1, root, "after the steal")
		check(s, 0, th.th.tid, "after the steal")
		tb.Join(th)
		if tb.RankID() != 0 {
			t.Fatalf("the join resumed on rank %d, want a migration to rank 0", tb.RankID())
		}
		check(s, 0, root, "after the join migration")
		check(s, 1, 0, "after the join migration")
	})
	regionOver(s)

	// FBC: rank 1 steals the pending child; the root joins it while it runs
	// and is woken in place on rank 0 by the completion notification.
	s, _ = runRegionCfg(t, 2, Config{Policy: FBC}, nil, func(tb *TB) {
		s, root := tb.Sched(), tb.th.tid
		th := tb.Fork(func(cb *TB) {
			cb.Proc().Advance(100 * sim.Microsecond)
			check(s, 1, cb.th.tid, "stolen child")
		})
		tb.Proc().Advance(50 * sim.Microsecond)
		tb.Join(th)
		if s.PolicyStats.FBCWakes != 1 || tb.RankID() != 0 {
			t.Fatalf("FBC wakes = %d on rank %d, want one wake in place on rank 0",
				s.PolicyStats.FBCWakes, tb.RankID())
		}
		check(s, 0, root, "after the FBC in-place wake")
		check(s, 1, 0, "after the FBC in-place wake")
	})
	regionOver(s)
}

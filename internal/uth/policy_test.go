package uth

import (
	"strings"
	"testing"

	"ityr/internal/netmodel"
	"ityr/internal/pgas"
	"ityr/internal/rma"
	"ityr/internal/sim"
)

// runRegionCfg is runRegion with an explicit scheduler Config.
func runRegionCfg(t *testing.T, nranks int, cfg Config, hooks Hooks, body func(*TB)) (*Sched, sim.Time) {
	t.Helper()
	e := sim.NewEngine()
	c := rma.New(e, nranks, netmodel.Default(4))
	s := NewSched(c, cfg, 42, hooks)
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

func TestSchedPolicyParseRoundTrip(t *testing.T) {
	for _, p := range SchedPolicies {
		got, err := ParseSchedPolicy(p.String())
		if err != nil {
			t.Fatalf("ParseSchedPolicy(%q): %v", p.String(), err)
		}
		if got != p {
			t.Fatalf("ParseSchedPolicy(%q) = %v, want %v", p.String(), got, p)
		}
	}
	_, err := ParseSchedPolicy("bogus")
	if err == nil {
		t.Fatal("ParseSchedPolicy(bogus) succeeded")
	}
	for _, want := range []string{"childfirst", "helpfirst", "fbc"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not list valid policy %q", err, want)
		}
	}
}

func TestFibCorrectUnderEachPolicy(t *testing.T) {
	for _, pol := range SchedPolicies {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			var got int
			s, _ := runRegionCfg(t, 4, Config{Policy: pol}, nil, func(tb *TB) {
				got = fib(tb, 13)
			})
			if got != 233 {
				t.Fatalf("fib(13) = %d, want 233", got)
			}
			if s.Stats.Forks == 0 {
				t.Fatal("no forks recorded")
			}
		})
	}
}

func TestPolicyDeterministicSchedule(t *testing.T) {
	for _, pol := range []SchedPolicy{HelpFirst, FBC} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			run := func() (Stats, PolicyStats, sim.Time) {
				s, el := runRegionCfg(t, 4, Config{Policy: pol}, nil, func(tb *TB) { fib(tb, 12) })
				return s.Stats, s.PolicyStats, el
			}
			s1, p1, e1 := run()
			s2, p2, e2 := run()
			if s1 != s2 || p1 != p2 || e1 != e2 {
				t.Fatalf("nondeterministic: %+v %+v @%d vs %+v %+v @%d", s1, p1, e1, s2, p2, e2)
			}
		})
	}
}

// TestChildFirstPolicyStatsZero pins the digest-safety property the golden
// tests rely on: the default policy never touches PolicyStats, and pending
// entries never appear, so pre-PR schedules cannot have moved.
func TestChildFirstPolicyStatsZero(t *testing.T) {
	s, _ := runRegion(t, 4, nil, func(tb *TB) { fib(tb, 12) })
	if s.PolicyStats != (PolicyStats{}) {
		t.Fatalf("child-first run touched PolicyStats: %+v", s.PolicyStats)
	}
}

// TestFBCNoMigrations checks finish-based coordination's defining property:
// blocked parents never migrate — they are woken in place by completion
// notifications — and thieves only ever move task descriptors, so the
// stack-migration counter stays at zero.
func TestFBCNoMigrations(t *testing.T) {
	s, _ := runRegionCfg(t, 4, Config{Policy: FBC}, nil, func(tb *TB) { fib(tb, 13) })
	if s.Stats.Migrations != 0 {
		t.Fatalf("FBC migrated %d threads, want 0", s.Stats.Migrations)
	}
	if s.PolicyStats.PendingSteals == 0 {
		t.Fatal("expected pending-task steals on 4 ranks")
	}
	if s.PolicyStats.FBCWakes == 0 {
		t.Fatal("expected at least one in-place join wake")
	}
}

// TestHelpFirstParentRunsBeforeChild checks help-first's defining property
// on a single rank: Fork returns immediately and the parent keeps running;
// the child only starts when the parent blocks (or the scheduler drains the
// deque). Under child-first the same program runs the child first.
func TestHelpFirstParentRunsBeforeChild(t *testing.T) {
	order := func(pol SchedPolicy) []string {
		var got []string
		runRegionCfg(t, 1, Config{Policy: pol}, nil, func(tb *TB) {
			th := tb.Fork(func(tb *TB) { got = append(got, "child") })
			got = append(got, "parent")
			tb.Join(th)
		})
		return got
	}
	if o := order(HelpFirst); o[0] != "parent" {
		t.Fatalf("help-first order = %v, want parent first", o)
	}
	if o := order(ChildFirst); o[0] != "child" {
		t.Fatalf("child-first order = %v, want child first", o)
	}
}

// TestHelpFirstHooksPairing re-runs the hook-pairing invariant under the
// help-first policies: every handler OnSteal acquires against must have
// been issued by OnFork's release, and steals of pending tasks must still
// fence (a thief may read the forker's prior writes).
func TestHelpFirstHooksPairing(t *testing.T) {
	for _, pol := range []SchedPolicy{HelpFirst, FBC} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			h := &traceHooks{}
			s, _ := runRegionCfg(t, 4, Config{Policy: pol}, h, func(tb *TB) { fib(tb, 12) })
			if uint64(h.steals) != s.Stats.Steals {
				t.Fatalf("OnSteal fired %d times for %d steals", h.steals, s.Stats.Steals)
			}
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
				t.Fatal("steals occurred but Release #2 never fired")
			}
		})
	}
}

// TestPolicySpeedup: both alternative policies must still parallelize a
// flat task tree across 8 ranks.
func TestPolicySpeedup(t *testing.T) {
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
	for _, pol := range []SchedPolicy{HelpFirst, FBC} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			_, e1 := runRegionCfg(t, 1, Config{Policy: pol}, nil, func(tb *TB) { spawn(tb, 64) })
			_, e8 := runRegionCfg(t, 8, Config{Policy: pol}, nil, func(tb *TB) { spawn(tb, 64) })
			speedup := float64(e1) / float64(e8)
			if speedup < 3 {
				t.Fatalf("8-rank speedup = %.2f, want >= 3 (e1=%v e8=%v)", speedup, e1, e8)
			}
		})
	}
}

// TestPolicyNestedStress: deep nested fork-join (1024 leaves) completes and
// counts every leaf exactly once under every policy.
func TestPolicyNestedStress(t *testing.T) {
	for _, pol := range SchedPolicies {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
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
			s, _ := runRegionCfg(t, 6, Config{Policy: pol}, nil, func(tb *TB) { spawn(tb, 10) })
			if count != 1024 {
				t.Fatalf("leaf count = %d, want 1024", count)
			}
			if s.Stats.Forks != 2*1024-2 {
				t.Fatalf("forks = %d, want %d", s.Stats.Forks, 2*1024-2)
			}
		})
	}
}

package uth

import (
	"testing"

	"ityr/internal/fault"
	"ityr/internal/netmodel"
	"ityr/internal/rma"
	"ityr/internal/sim"
	"ityr/internal/trace"
)

// An idle worker's loop runs as an engine-context step (Worker.idleStep),
// which must be the process-context loop it replaced event for event: same
// clock, same steal outcomes, same kernel event counts — only the process
// switches go. TestIdleRegionPinned holds an idle-heavy region under every
// policy, and with a straggler, victim blacklisting and RMA faults armed, to
// pinned numbers, so a change to the loop that moves a clock, a steal
// outcome or a kernel count fails it. A change to the victim stream re-draws
// every steal and moves them all.

// idleRun is what one idle-heavy region must reproduce.
type idleRun struct {
	now                        sim.Time // final clock
	failed, steals, migrations uint64   // Sched.Stats
	events, fast               uint64   // EngineStats
	retries, retryNs           uint64   // rma.Stats
	kRetry, kFailedSteal       int      // recorded spans
}

const (
	idleRanks        = 256
	idleCoresPerNode = 8
)

// runIdleRegion runs one region on idleRanks ranks in which only the root
// thread has anything to do: it charges 1 ms and forks nothing, or, with
// lateFork, charges 950 µs and then forks one 50 µs child beside 50 µs of
// its own, so that exactly one of the 255 idle workers' steals succeeds. It
// returns the region and the engine's process handoffs.
func runIdleRegion(t *testing.T, cfg Config, straggler, flaky, lateFork bool) (idleRun, uint64) {
	t.Helper()
	e := sim.NewEngine()
	c := rma.New(e, idleRanks, netmodel.Default(idleCoresPerNode))
	log := trace.New()
	c.SetRecorder(trace.NewRecorder(idleRanks, log, nil))
	if flaky {
		c.SetFaults(fault.NewInjector(fault.PlanFlakyRMA(7), idleRanks))
	}
	s := NewSched(c, cfg, 42, nil)
	body := func(tb *TB) {
		if !lateFork {
			tb.Proc().Advance(sim.Millisecond)
			return
		}
		tb.Proc().Advance(950 * sim.Microsecond)
		th := tb.Fork(func(tb *TB) { tb.Proc().Advance(50 * sim.Microsecond) })
		tb.Proc().Advance(50 * sim.Microsecond)
		tb.Join(th)
	}
	for i := 0; i < idleRanks; i++ {
		i := i
		r := c.Rank(i)
		e.Spawn("spmd", func(p *sim.Proc) {
			if straggler && i == 1 {
				r.SetSlowdown(10, 1)
			}
			r.Attach(p)
			s.WorkerMain(i, body)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	es, rs := e.Stats(), c.Stats()
	return idleRun{
		now:    e.Now(),
		failed: s.Stats.FailedSteals, steals: s.Stats.Steals, migrations: s.Stats.Migrations,
		events: es.Events, fast: es.FastAdvances,
		retries: rs.Retries, retryNs: rs.RetryNs,
		kRetry: log.Count(trace.KRetry), kFailedSteal: log.Count(trace.KFailedSteal),
	}, es.Handoffs
}

func TestIdleRegionPinned(t *testing.T) {
	blacklist := Config{VictimBlacklist: true}
	cases := []struct {
		name             string
		cfg              Config
		straggler, flaky bool
		idle, lateFork   idleRun // pinned
	}{
		{name: "childfirst", cfg: Config{Policy: ChildFirst},
			idle:     idleRun{now: 1055020, failed: 14790, events: 45635, fast: 18, kFailedSteal: 14790},
			lateFork: idleRun{now: 1055020, failed: 14789, steals: 1, migrations: 1, events: 45636, fast: 24, kFailedSteal: 14789}},
		{name: "helpfirst", cfg: Config{Policy: HelpFirst},
			idle:     idleRun{now: 1055020, failed: 14790, events: 45635, fast: 18, kFailedSteal: 14790},
			lateFork: idleRun{now: 1055020, failed: 14789, steals: 1, migrations: 1, events: 45636, fast: 23, kFailedSteal: 14789}},
		{name: "fbc", cfg: Config{Policy: FBC},
			idle:     idleRun{now: 1055020, failed: 14790, events: 45635, fast: 18, kFailedSteal: 14790},
			lateFork: idleRun{now: 1062660, failed: 14796, steals: 1, events: 45658, fast: 25, kFailedSteal: 14796}},
		{name: "locality-aware", cfg: Config{LocalityAware: true},
			idle:     idleRun{now: 1055020, failed: 14790, events: 45644, fast: 9, kFailedSteal: 14790},
			lateFork: idleRun{now: 1055020, failed: 14789, steals: 1, migrations: 1, events: 45644, fast: 16, kFailedSteal: 14789}},
		{name: "blacklist+straggler", cfg: blacklist, straggler: true,
			idle:     idleRun{now: 1055020, failed: 14741, events: 45479, fast: 27, kFailedSteal: 14741},
			lateFork: idleRun{now: 1055020, failed: 14740, steals: 1, migrations: 1, events: 45480, fast: 33, kFailedSteal: 14740}},
		{name: "flaky-rma", flaky: true,
			idle: idleRun{now: 1061964, failed: 14572, events: 44554, fast: 772,
				retries: 327, retryNs: 3357470, kRetry: 327, kFailedSteal: 14572},
			lateFork: idleRun{now: 1068854, failed: 14611, steals: 1, migrations: 1, events: 44679, fast: 775,
				retries: 328, retryNs: 3367837, kRetry: 328, kFailedSteal: 14611}},
	}
	for _, tc := range cases {
		for _, lateFork := range []bool{false, true} {
			name, want := tc.name+"/idle", tc.idle
			if lateFork {
				name, want = tc.name+"/late fork", tc.lateFork
			}
			t.Run(name, func(t *testing.T) {
				got, handoffs := runIdleRegion(t, tc.cfg, tc.straggler, tc.flaky, lateFork)
				if got != want {
					t.Errorf("region moved:\n got %+v\nwant %+v", got, want)
				}
				// Six switches a rank are the region's frame — its first
				// resume, four barriers, the wake-up that ends its loop — and
				// a steal that succeeds costs a few; a failed one must cost
				// none, where it cost the old loop three.
				if handoffs > 7*idleRanks {
					t.Errorf("%d handoffs for %d failed steals on %d ranks, want at most %d",
						handoffs, got.failed, idleRanks, 7*idleRanks)
				}
				if lateFork && got.steals == 0 {
					t.Error("no steal succeeded: the case does not leave a step through finishSteal")
				}
				if tc.flaky && got.kRetry == 0 {
					t.Error("no retry: the case does not retry inside an idle steal")
				}
			})
		}
	}
}

// TestIdleLoopZeroAllocs: with recording off an idle iteration — tick,
// victim draw, CAS charge, failed-steal bookkeeping, backoff — allocates
// nothing, however many of them a region makes: the step is one function
// value per worker and its state lives in the Worker.
func TestIdleLoopZeroAllocs(t *testing.T) {
	var failed uint64
	run := func(idle sim.Time) {
		s, _ := runRegionCfg(t, 64, Config{}, nil, func(tb *TB) { tb.Proc().Advance(idle) })
		failed = s.Stats.FailedSteals
	}
	small := testing.AllocsPerRun(3, func() { run(200 * sim.Microsecond) })
	few := failed
	big := testing.AllocsPerRun(3, func() { run(2200 * sim.Microsecond) })
	perSteal := (big - small) / float64(failed-few)
	if perSteal > 0.01 {
		t.Fatalf("%.4f allocations per failed steal (%.0f for %d, %.0f for %d), want 0",
			perSteal, small, few, big, failed)
	}
}

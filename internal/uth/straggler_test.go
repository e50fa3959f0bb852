package uth

import (
	"testing"

	"ityr/internal/netmodel"
	"ityr/internal/rma"
	"ityr/internal/sim"
)

// runStragglerRegion is runRegion with rank 1 slowed 10× and the given
// scheduler config, coresPerNode ranks to a node.
func runStragglerRegion(t *testing.T, nranks, coresPerNode int, cfg Config, body func(*TB)) (*Sched, sim.Time) {
	t.Helper()
	e := sim.NewEngine()
	c := rma.New(e, nranks, netmodel.Default(coresPerNode))
	s := NewSched(c, cfg, 42, nil)
	var elapsed sim.Time
	for i := 0; i < nranks; i++ {
		i := i
		r := c.Rank(i)
		e.Spawn("spmd", func(p *sim.Proc) {
			if i == 1 {
				r.SetSlowdown(10, 1)
			}
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

// TestTerminationUnderStraggler: the fork-join region terminates with the
// correct result when rank 1 computes 10× slower than the others, both
// with and without victim blacklisting (satellite: straggler tolerance).
func TestTerminationUnderStraggler(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{VictimBlacklist: true},
	} {
		cfg := cfg
		name := "plain"
		if cfg.VictimBlacklist {
			name = "blacklist"
		}
		t.Run(name, func(t *testing.T) {
			var got int
			s, _ := runStragglerRegion(t, 4, 4, cfg, func(tb *TB) {
				got = fib(tb, 13)
			})
			if got != 233 {
				t.Fatalf("fib(13) = %d under straggler, want 233", got)
			}
			if s.Stats.Steals == 0 {
				t.Fatalf("no steals on 4 ranks — straggler test exercised nothing")
			}
			if !cfg.VictimBlacklist && (s.Stats.Blacklists != 0 || s.Stats.StealTimeouts != 0) {
				t.Errorf("blacklist stats nonzero with the feature off: %+v", s.Stats)
			}
		})
	}
}

// TestBlacklistEngagesOnStraggler: with blacklisting on, steal attempts
// involving the 10×-slow rank must exceed stealTimeout and strike victims
// out, and the run still completes correctly. One rank per node: the
// straggler's inter-node steal (CAS plus stack transfer, ≈4 µs nominal)
// takes about 40 µs, past the 20 µs timeout.
func TestBlacklistEngagesOnStraggler(t *testing.T) {
	cfg := Config{VictimBlacklist: true}
	var got int
	s, _ := runStragglerRegion(t, 4, 1, cfg, func(tb *TB) {
		got = fib(tb, 14)
	})
	if got != 377 {
		t.Fatalf("fib(14) = %d, want 377", got)
	}
	if s.Stats.StealTimeouts == 0 {
		t.Errorf("no steal attempts exceeded the %d ns timeout despite a 10× straggler", stealTimeout)
	}
	if s.Stats.Blacklists == 0 {
		t.Errorf("straggler never blacklisted (timeouts %d)", s.Stats.StealTimeouts)
	}
}

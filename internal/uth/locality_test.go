package uth

import (
	"testing"

	"ityr/internal/netmodel"
	"ityr/internal/rma"
	"ityr/internal/sim"
)

// runWithCfg is runRegion with a custom scheduler config.
func runWithCfg(t *testing.T, nranks, coresPerNode int, seed int64, cfg Config, body func(*TB)) *Sched {
	t.Helper()
	e := sim.NewEngine()
	c := rma.New(e, nranks, netmodel.Default(coresPerNode))
	s := NewSched(c, cfg, seed, nil)
	for i := 0; i < nranks; i++ {
		i := i
		r := c.Rank(i)
		e.Spawn("spmd", func(p *sim.Proc) {
			r.Attach(p)
			s.WorkerMain(i, body)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLocalityAwareCorrectness(t *testing.T) {
	var got int
	s := runWithCfg(t, 8, 4, 3, Config{LocalityAware: true}, func(tb *TB) {
		got = fib(tb, 14)
	})
	if got != 377 {
		t.Fatalf("fib(14) = %d, want 377", got)
	}
	if s.Stats.Steals == 0 {
		t.Fatal("no steals under locality-aware policy")
	}
}

func TestLocalityAwareRaisesIntraNodeShare(t *testing.T) {
	body := func(tb *TB) { fib(tb, 15) }
	random := runWithCfg(t, 16, 4, 5, Config{}, body)
	local := runWithCfg(t, 16, 4, 5, Config{LocalityAware: true}, body)
	if random.Stats.Steals == 0 || local.Stats.Steals == 0 {
		t.Skip("not enough steals to compare")
	}
	rShare := float64(random.Stats.IntraSteals) / float64(random.Stats.Steals)
	lShare := float64(local.Stats.IntraSteals) / float64(local.Stats.Steals)
	t.Logf("intra-node steal share: random %.2f vs locality-aware %.2f", rShare, lShare)
	if lShare <= rShare {
		t.Errorf("locality-aware policy did not raise intra-node share: %.2f vs %.2f", lShare, rShare)
	}
}

func TestLocalityAwareSingleCorePerNode(t *testing.T) {
	// Degenerate topology (1 core/node): must behave like pure random and
	// never self-steal.
	s := runWithCfg(t, 4, 1, 9, Config{LocalityAware: true}, func(tb *TB) {
		fib(tb, 12)
	})
	if s.Stats.IntraSteals != 0 {
		t.Fatalf("intra-node steals with 1 core/node: %d", s.Stats.IntraSteals)
	}
}

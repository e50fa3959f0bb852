package uth

import (
	"testing"

	"ityr/internal/netmodel"
	"ityr/internal/rma"
	"ityr/internal/sim"
)

// victimSched builds (but does not run) an n-rank scheduler with seed.
func victimSched(n int, seed int64) *Sched {
	return NewSched(rma.New(sim.NewEngine(), n, netmodel.Default(8)), Config{}, seed, nil)
}

// TestVictimDraw: the purely random pick never names the thief, stays in
// range, and 64·n draws reach every other rank.
func TestVictimDraw(t *testing.T) {
	for _, n := range []int{2, 3, 64, 4096} {
		s := victimSched(n, 42)
		for _, me := range []int{0, n / 2, n - 1} {
			w := s.workers[me]
			hits := make([]int, n)
			for i := 0; i < 64*n; i++ {
				v := w.pickVictim()
				if v < 0 || v >= n || v == me {
					t.Fatalf("n=%d rank %d drew %d", n, me, v)
				}
				hits[v]++
			}
			for v, h := range hits {
				if h == 0 && v != me {
					t.Fatalf("n=%d rank %d never drew rank %d in %d draws", n, me, v, 64*n)
				}
			}
		}
	}
}

// TestVictimStreamsDiffer: every worker of a scheduler shares its seed, yet
// each draws its own sequence; the same seed and rank replay it.
func TestVictimStreamsDiffer(t *testing.T) {
	seq := func(w *Worker) [16]int {
		var out [16]int
		for i := range out {
			out[i] = w.draw(1 << 20)
		}
		return out
	}
	a, b := victimSched(8, 42), victimSched(8, 42)
	if seq(a.workers[0]) == seq(a.workers[1]) {
		t.Error("workers 0 and 1 drew the same sequence from one seed")
	}
	if seq(a.workers[3]) != seq(b.workers[3]) {
		t.Error("the same seed and rank drew two different sequences")
	}
}

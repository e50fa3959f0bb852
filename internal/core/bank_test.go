package core

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"ityr/internal/fault"
	"ityr/internal/pgas"
	"ityr/internal/sim"
)

// TestBankedRaceReadsAsUnbanked runs a deliberate race twice, on an engine
// that banks charges and on one told NoBank, and requires the reader to see
// the same values at the same instants. Rank 0 writes a counter to cached
// global memory whose home is its own (both ranks share a node, so the
// checkin copies straight home), Puts it into two slots of rank 1's window
// segment, one Put right after the other, flushes, and stores it into its
// own segment right after the Flush, charging between the writes; then,
// after another charge, Puts it into a slot of its own segment and one
// more of rank 1's, and reads its own slot back; rank 1 samples all six.
// Every 40 rounds both ranks charge and meet at a Barrier, and rank 1
// samples the instant it is released.
// Where a banked writer's bytes land is when the kernel runs it, not when
// its clock says, unless the write takes its bank first or is deferred to
// the instant the bank reaches — so the samples differ as soon as a layer
// writes shared memory without either: the home path's copy, rma's issue
// (the second Put holds the first one's banked overhead), a word Put (the
// last two hold a charge), or a window store (it holds the Flush's banked
// wait). A rank's read of its own word must take its bank, or it reads its
// own deferred Put unmade. A Barrier must record each rank's arrival with
// its bank, or the release moves. The race runs at nominal speed and with
// the writer a 3× straggler, whose charges are banked at its scale (the two
// must read differently, or the slowdown was not in force).
func TestBankedRaceReadsAsUnbanked(t *testing.T) {
	slowWriter := &fault.Plan{Name: "slow-writer", Stragglers: []fault.Straggler{{Rank: 0, Num: 3, Den: 1}}}
	var nominal, slow []string
	t.Run("nominal", func(t *testing.T) { nominal = bankedRace(t, nil) })
	t.Run("slow-writer", func(t *testing.T) { slow = bankedRace(t, slowWriter) })
	if reflect.DeepEqual(nominal, slow) {
		t.Fatal("a 3× slower writer left every sample as it was")
	}
}

// bankedRace runs the race under plan banked and unbanked and returns the
// banked run's samples once they equal the unbanked run's.
func bankedRace(t *testing.T, plan *fault.Plan) []string {
	run := func(bank bool) []string {
		rt := NewRuntime(Config{Ranks: 2, CoresPerNode: 2, Pgas: pgas.Config{Policy: pgas.WriteBackLazy}, Faults: plan})
		if !bank {
			rt.Engine().NoBank()
		}
		win := rt.NewWin(40)
		var addr pgas.Addr
		var samples, own []string
		err := rt.Run(func(s *SPMD) {
			if s.Rank() == 0 {
				addr = s.AllocCollective(64, pgas.BlockDist)
			}
			s.Barrier()
			l := s.Local()
			r := l.Rank()
			for i := 0; i < 200; i++ {
				if i%40 == 39 {
					s.Charge(sim.Time(300 + 211*s.Rank() + 17*(i%3)))
					s.Barrier()
					if s.Rank() == 1 {
						samples = append(samples, fmt.Sprintf("%d released", s.Now()))
					}
				}
				if s.Rank() == 0 {
					s.Charge(sim.Time(200 + 53*(i%5)))
					v, err := l.Checkout(addr, 8, pgas.Write)
					if err != nil {
						panic(err)
					}
					binary.LittleEndian.PutUint64(v, uint64(i))
					if err := l.Checkin(addr, 8, pgas.Write); err != nil {
						panic(err)
					}
					s.Charge(sim.Time(20 + 3*(i%7)))
					win.PutUint64(s, uint64(i), 1, 0)
					win.PutUint64(s, uint64(i), 1, 8)
					s.Flush() // so that the next checkout's Flush does not wait
					win.w.StoreLocalUint64(r, uint64(i), 16)
					s.Charge(sim.Time(9 + 5*(i%4)))
					win.PutUint64(s, uint64(i), 0, 24)
					win.PutUint64(s, uint64(i), 1, 32)
					own = append(own, fmt.Sprintf("%d self=%d", s.Now(), win.w.LocalUint64(r, 24)))
					continue
				}
				s.Charge(sim.Time(25 + 97*(i%7)))
				v, err := l.Get(addr, 8) // an rma Get: it reads at its instant
				if err != nil {
					panic(err)
				}
				home := binary.LittleEndian.Uint64(v)
				seg := win.Seg(s)
				put, again := binary.LittleEndian.Uint64(seg), binary.LittleEndian.Uint64(seg[8:])
				stored := win.w.GetUint64(r, 0, 16)
				wordPuts := [2]uint64{win.w.GetUint64(r, 0, 24), win.w.GetUint64(r, 1, 32)}
				samples = append(samples, fmt.Sprintf("%d home=%d put=%d,%d stored=%d words=%d", s.Now(), home, put, again, stored, wordPuts))
			}
			s.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return append(samples, own...)
	}
	banked, unbanked := run(true), run(false)
	if !reflect.DeepEqual(banked, unbanked) {
		for i := range banked {
			if banked[i] != unbanked[i] {
				t.Fatalf("sample %d: banked run read %q, unbanked %q", i, banked[i], unbanked[i])
			}
		}
		t.Fatalf("banked run took %d samples, unbanked %d", len(banked), len(unbanked))
	}
	return banked
}

// TestRingStepTakesTwoHandoffs pins what banking the one-sided layer's
// private waits and word stores saves an SPMD ring, halo's step in small: a
// compute charge and a Barrier, then a PutUint64 to each neighbour, a Flush
// and a Barrier. The first Barrier's Park takes the compute charge; the
// second Put's store is deferred behind the first one's banked overhead
// (sim.Proc.Defer), and the second Barrier's Park takes the lot with the
// second overhead and the flush wait. A rank is switched in twice a step:
// once by each wake.
func TestRingStepTakesTwoHandoffs(t *testing.T) {
	const ranks, steps = 8, 5
	rt := NewRuntime(Config{Ranks: ranks, CoresPerNode: 4})
	win := rt.NewWin(16)
	var h0, h1 uint64
	err := rt.Run(func(s *SPMD) {
		me := s.Rank()
		s.Barrier()
		if me == 0 {
			h0 = rt.Engine().Stats().Handoffs
		}
		for step := 0; step < steps; step++ {
			s.Charge(sim.Time(1000 + 10*me))
			s.Barrier()
			win.PutUint64(s, uint64(step), (me+ranks-1)%ranks, 8)
			win.PutUint64(s, uint64(step), (me+1)%ranks, 0)
			s.Flush()
			s.Barrier()
		}
		if me == 0 {
			h1 = rt.Engine().Stats().Handoffs
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := h1-h0, uint64(2*ranks*steps); got != want {
		t.Errorf("%d handoffs over %d rank-steps, want %d: 2 a rank-step", got, ranks*steps, want)
	}
}

// TestStragglerJoinDuringFenceReplay: a join waiter registers before its
// release fence, so its child can complete, and hand it the token of a rank
// of another speed, while the fence's banked Put overhead and flush wait
// are being replayed. A bank is summed at the scale it was charged at, so a
// runtime whose plan slows a rank banks nothing once a fork-join region
// starts (SPMD.RootExec). The child's compute sweeps its completion across
// the waiter's fence, with either rank the straggler; every run must end.
func TestStragglerJoinDuringFenceReplay(t *testing.T) {
	for slow := 0; slow < 2; slow++ {
		for x := 0; x < 400; x += 8 {
			plan := &fault.Plan{Name: "straggler", Stragglers: []fault.Straggler{{Rank: slow, Num: 10, Den: 1}}}
			rt := NewRuntime(Config{
				Ranks:        2,
				CoresPerNode: 1,
				Pgas:         pgas.Config{BlockSize: 512, SubBlockSize: 64, CacheSize: 16384, Policy: pgas.WriteBackLazy},
				Seed:         3,
				Faults:       plan,
			})
			_, err := rt.RunRoot(func(c *Ctx) {
				base := c.Local().AllocCollective(1024, pgas.BlockCyclicDist)
				th := c.Fork(func(c *Ctx) {
					c.Charge(50 * sim.Microsecond)
					c.Yield() // the steal lands
					c.Charge(sim.Time(25 * x))
				})
				// The continuation runs on rank 1 and dirties a block homed
				// on rank 0, which its join's fence writes back.
				v := c.MustCheckout(base, 64, pgas.Write)
				v[0] = 1
				c.Checkin(base, 64, pgas.Write)
				c.Join(th)
			})
			if err != nil {
				t.Fatalf("straggler rank %d, child charge %d: %v", slow, 25*x, err)
			}
		}
	}
}

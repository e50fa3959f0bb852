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
// checkin copies straight home) and Puts it into rank 1's window segment,
// charging between the writes; rank 1 samples both.
// Where a banked writer's bytes land is when the kernel runs it, not when
// its clock says, unless the write takes its bank first — so the samples
// differ as soon as a layer writes shared memory without syncing: the home
// path's copy, or rma's issue. The race runs at nominal speed and with the
// writer a 3× straggler, whose charges are banked at its scale (the two
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
		win := rt.NewWin(8)
		var addr pgas.Addr
		var samples []string
		err := rt.Run(func(s *SPMD) {
			if s.Rank() == 0 {
				addr = s.AllocCollective(64, pgas.BlockDist)
			}
			s.Barrier()
			l := s.Local()
			for i := 0; i < 200; i++ {
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
					s.Flush() // so that the next checkout's Flush does not wait
					continue
				}
				s.Charge(sim.Time(25 + 97*(i%7)))
				v, err := l.Get(addr, 8) // an rma Get: it reads at its instant
				if err != nil {
					panic(err)
				}
				home := binary.LittleEndian.Uint64(v)
				put := binary.LittleEndian.Uint64(win.Seg(s))
				samples = append(samples, fmt.Sprintf("%d home=%d put=%d", s.Now(), home, put))
			}
			s.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return samples
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

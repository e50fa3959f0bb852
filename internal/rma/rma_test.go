package rma

import (
	"bytes"
	"runtime"
	"testing"

	"ityr/internal/netmodel"
	"ityr/internal/sim"
)

// harness spawns one proc per rank running body and runs the engine.
func harness(t *testing.T, n int, net netmodel.Params, body func(r *Rank)) *Comm {
	t.Helper()
	e := sim.NewEngine()
	c := New(e, n, net)
	for i := 0; i < n; i++ {
		r := c.Rank(i)
		e.Spawn("rank", func(p *sim.Proc) {
			r.Attach(p)
			body(r)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGetPutRoundTrip(t *testing.T) {
	net := netmodel.Default(2)
	harness(t, 2, net, func(r *Rank) {
		w := winFor(r)
		if r.ID() == 0 {
			src := []byte{1, 2, 3, 4, 5}
			w.Put(r, src, 1, 10)
			r.Flush()
			dst := make([]byte, 5)
			w.Get(r, 1, 10, dst)
			r.Flush()
			if !bytes.Equal(dst, src) {
				t.Errorf("got %v, want %v", dst, src)
			}
		}
		r.Barrier()
	})
}

// winFor lazily creates one shared window per communicator for tests.
var testWins = map[*Comm]*Win{}

func winFor(r *Rank) *Win {
	if w, ok := testWins[r.Comm()]; ok {
		return w
	}
	w := r.Comm().NewUniformWin(1 << 16)
	testWins[r.Comm()] = w
	return w
}

func TestFlushChargesTransferTime(t *testing.T) {
	net := netmodel.Default(1) // every rank on its own node: inter-node costs
	var elapsed sim.Time
	harness(t, 2, net, func(r *Rank) {
		w := winFor(r)
		if r.ID() == 0 {
			start := r.Proc().Now()
			buf := make([]byte, 60000) // 60 KB: 10 µs at 6 B/ns
			w.Get(r, 1, 0, buf)
			r.Flush()
			elapsed = r.Proc().Now() - start
		}
		r.Barrier()
	})
	min := net.Latency + sim.Time(60000/net.Bandwidth)
	if elapsed < min {
		t.Errorf("flush took %d ns, want >= %d", elapsed, min)
	}
	if elapsed > 3*min {
		t.Errorf("flush took %d ns, unreasonably over %d", elapsed, min)
	}
}

func TestLocalAccessIsCheap(t *testing.T) {
	net := netmodel.Default(1)
	var local, remote sim.Time
	harness(t, 2, net, func(r *Rank) {
		w := winFor(r)
		if r.ID() == 0 {
			buf := make([]byte, 4096)
			start := r.Proc().Now()
			w.Get(r, 0, 0, buf)
			r.Flush()
			local = r.Proc().Now() - start
			start = r.Proc().Now()
			w.Get(r, 1, 0, buf)
			r.Flush()
			remote = r.Proc().Now() - start
		}
		r.Barrier()
	})
	if local >= remote {
		t.Errorf("local access (%d) should be cheaper than remote (%d)", local, remote)
	}
}

func TestIntraNodeCheaperThanInterNode(t *testing.T) {
	net := netmodel.Default(2) // ranks 0,1 on node 0; rank 2 on node 1
	var intra, inter sim.Time
	harness(t, 3, net, func(r *Rank) {
		w := winFor(r)
		if r.ID() == 0 {
			buf := make([]byte, 4096)
			start := r.Proc().Now()
			w.Get(r, 1, 0, buf)
			r.Flush()
			intra = r.Proc().Now() - start
			start = r.Proc().Now()
			w.Get(r, 2, 0, buf)
			r.Flush()
			inter = r.Proc().Now() - start
		}
		r.Barrier()
	})
	if intra >= inter {
		t.Errorf("intra-node (%d) should be cheaper than inter-node (%d)", intra, inter)
	}
}

func TestCompareAndSwap(t *testing.T) {
	net := netmodel.Default(2)
	harness(t, 2, net, func(r *Rank) {
		w := winFor(r)
		if r.ID() == 0 {
			w.PutUint64(r, 7, 1, 0)
			r.Flush()
			if prev := w.CompareAndSwap(r, 1, 0, 7, 9); prev != 7 {
				t.Errorf("CAS prev = %d, want 7", prev)
			}
			if prev := w.CompareAndSwap(r, 1, 0, 7, 11); prev != 9 {
				t.Errorf("failed CAS prev = %d, want 9", prev)
			}
			if got := w.GetUint64(r, 1, 0); got != 9 {
				t.Errorf("value after failed CAS = %d, want 9", got)
			}
		}
		r.Barrier()
	})
}

func TestFetchAndAddSerializesAcrossRanks(t *testing.T) {
	net := netmodel.Default(4)
	c := harness(t, 4, net, func(r *Rank) {
		w := winFor(r)
		for i := 0; i < 10; i++ {
			w.FetchAndAdd(r, 0, 8, 1)
		}
		r.Barrier()
		if r.ID() == 0 {
			if got := w.LocalUint64(r, 8); got != 40 {
				t.Errorf("counter = %d, want 40", got)
			}
		}
	})
	if c.Stats().AtomicOps != 40 {
		t.Errorf("atomic ops = %d, want 40", c.Stats().AtomicOps)
	}
}

func TestMaxUint64(t *testing.T) {
	net := netmodel.Default(2)
	harness(t, 2, net, func(r *Rank) {
		w := winFor(r)
		if r.ID() == 0 {
			w.MaxUint64(r, 1, 16, 5)
			w.MaxUint64(r, 1, 16, 3) // must not lower the value
			if got := w.GetUint64(r, 1, 16); got != 5 {
				t.Errorf("max = %d, want 5", got)
			}
			w.MaxUint64(r, 1, 16, 12)
			if got := w.GetUint64(r, 1, 16); got != 12 {
				t.Errorf("max = %d, want 12", got)
			}
		}
		r.Barrier()
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	net := netmodel.Default(4)
	var maxBefore, minAfter sim.Time
	minAfter = 1 << 62
	harness(t, 4, net, func(r *Rank) {
		d := sim.Time(r.ID()) * 1000
		r.Proc().Advance(d)
		if now := r.Proc().Now(); now > maxBefore {
			maxBefore = now
		}
		r.Barrier()
		if now := r.Proc().Now(); now < minAfter {
			minAfter = now
		}
	})
	if minAfter < maxBefore {
		t.Errorf("some rank left the barrier at %d before the last arrived at %d", minAfter, maxBefore)
	}
}

func TestNonUniformWindowSizes(t *testing.T) {
	net := netmodel.Default(2)
	harness(t, 2, net, func(r *Rank) {
		c := r.Comm()
		w, ok := testNUWins[c]
		if !ok {
			w = c.NewWin([]int{100, 200})
			testNUWins[c] = w
		}
		if r.ID() == 1 {
			buf := make([]byte, 200)
			w.Get(r, 1, 0, buf) // full local segment is fine
			r.Flush()
			defer func() {
				if recover() == nil {
					t.Error("expected panic reading past rank 0's 100-byte segment")
				}
				r.Barrier()
			}()
			w.Get(r, 0, 50, buf) // 50+200 > 100: out of range
			return
		}
		r.Barrier()
	})
}

var testNUWins = map[*Comm]*Win{}

func TestTrafficStats(t *testing.T) {
	net := netmodel.Default(2)
	c := harness(t, 2, net, func(r *Rank) {
		w := winFor(r)
		if r.ID() == 0 {
			w.Put(r, make([]byte, 100), 1, 0)
			w.Get(r, 1, 0, make([]byte, 40))
			r.Flush()
		}
		r.Barrier()
	})
	s := c.Stats()
	if s.PutBytes != 100 || s.GetBytes != 40 {
		t.Errorf("stats = %+v", s)
	}
}

// TestLocalOpDoesNotOccupyNIC pins the fix for local window accesses
// charging NIC serialization: a local Put squeezed between two remote Gets
// must not shift the second Get's completion time. The reference schedule
// replaces the local Put with a bare Advance of the same CPU cost
// (MsgOverhead), which by construction cannot touch the NIC pipeline.
func TestLocalOpDoesNotOccupyNIC(t *testing.T) {
	net := netmodel.Default(2)
	const n = 1 << 16 // large enough that serialization time is visible

	run := func(localPutBetween bool) sim.Time {
		var flushed sim.Time
		harness(t, 2, net, func(r *Rank) {
			w := winFor(r)
			if r.ID() == 0 {
				buf := make([]byte, n)
				w.Get(r, 1, 0, buf)
				if localPutBetween {
					w.Put(r, buf, 0, 0) // local: must be NIC-free
				} else {
					r.Proc().Advance(net.MsgOverhead) // same CPU cost, no op
				}
				w.Get(r, 1, 0, buf)
				r.Flush()
				flushed = r.Proc().Now()
			}
			r.Barrier()
		})
		return flushed
	}

	with := run(true)
	without := run(false)
	if with != without {
		t.Errorf("second Get completed at %d with a local Put in between, %d without", with, without)
	}
}

// TestLocalOpCompletesAtIssueTime checks that a lone local Put is complete
// the moment issue returns: the subsequent Flush must not advance the clock.
func TestLocalOpCompletesAtIssueTime(t *testing.T) {
	net := netmodel.Default(2)
	harness(t, 2, net, func(r *Rank) {
		w := winFor(r)
		if r.ID() == 0 {
			w.Put(r, make([]byte, 1<<16), 0, 0)
			before, waits := r.Proc().Now(), r.flushWaits
			r.Flush()
			if after := r.Proc().Now(); after != before {
				t.Errorf("Flush advanced the clock %d -> %d after a purely local Put", before, after)
			}
			if r.flushWaits != waits {
				t.Errorf("Flush counted a wait after a purely local Put")
			}
		}
		r.Barrier()
	})
}

// TestBarrierBudget holds a barrier on a warm communicator to its host
// budget: one kernel event per rank — the keyed wake that resumes it — and
// no allocation. A change that spends a second event or a closure on each
// wake fails here, not only in the scaling gate.
func TestBarrierBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun: keep other allocators off the count
	const ranks, warm, n = 64, 4, 100
	var events, mallocs uint64
	harness(t, ranks, netmodel.Default(8), func(r *Rank) {
		for i := 0; i < warm; i++ {
			r.Barrier()
		}
		// The last rank is woken last: once it runs, every event of a
		// barrier has been popped and the other ranks are parked in the next.
		last := r.ID() == ranks-1
		var m0, m1 runtime.MemStats
		if last {
			runtime.ReadMemStats(&m0)
			events = r.c.eng.Stats().Events
		}
		for i := 0; i < n; i++ {
			r.Barrier()
		}
		if last {
			runtime.ReadMemStats(&m1)
			events = r.c.eng.Stats().Events - events
			mallocs = m1.Mallocs - m0.Mallocs
		}
		r.Barrier() // nobody exits, handing its carrier back, inside the measurement
	})
	if events != n*ranks {
		t.Errorf("%d barriers on %d ranks popped %d events, want %d: one per wake", n, ranks, events, n*ranks)
	}
	// Whole objects per barrier, as testing.AllocsPerRun counts them: the
	// runtime's own stray allocation (one in a hundred runs under -race) is
	// not a barrier's.
	if mallocs/n != 0 {
		t.Errorf("%d barriers on %d ranks allocated %d objects, want none per barrier", n, ranks, mallocs)
	}
}

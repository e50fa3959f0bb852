package rma

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"ityr/internal/fault"
	"ityr/internal/netmodel"
	"ityr/internal/sim"
)

// faultHarness is harness with an injector armed on the communicator.
func faultHarness(t *testing.T, n int, plan fault.Plan, body func(r *Rank)) (*Comm, *fault.Injector) {
	t.Helper()
	e := sim.NewEngine()
	net := netmodel.Default(2)
	in := fault.NewInjector(plan, n)
	c := New(e, n, net)
	c.SetFaults(in)
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
	return c, in
}

// TestSetFaultsArmsWholePlan: SetFaults is the one call that arms a plan.
// Under one open link window a remote Put, a remote Get and a remote
// atomic each take exactly the window's extra longer than under an empty
// plan, a rank-local Put takes no longer, and the plan's straggler sleeps
// three times as long.
func TestSetFaultsArmsWholePlan(t *testing.T) {
	const extra = 700 * sim.Nanosecond
	type costs struct{ put, get, atomic, self, slow sim.Time }
	run := func(plan fault.Plan) costs {
		var got costs
		buf := make([]byte, 256)
		c, _ := faultHarness(t, 2, plan, func(r *Rank) {
			w, p := winFor(r), r.Proc()
			timed := func(op func()) sim.Time {
				t0 := p.Now()
				op()
				r.Flush()
				return p.Now() - t0
			}
			if r.ID() == 1 {
				got.slow = timed(func() { p.Advance(sim.Microsecond) })
				return
			}
			got.put = timed(func() { w.Put(r, buf, 1, 0) })
			got.get = timed(func() { w.Get(r, 1, 0, buf) })
			got.atomic = timed(func() { w.FetchAndAdd(r, 1, 512, 1) })
			got.self = timed(func() { w.Put(r, buf, 0, 0) })
		})
		delete(testWins, c)
		return got
	}
	base := run(fault.Plan{Name: "empty"})
	armed := run(fault.Plan{Name: "window+straggler",
		Links:      []fault.LinkWindow{{Src: -1, Dst: -1, ExtraLatency: extra}},
		Stragglers: []fault.Straggler{{Rank: 1, Num: 3, Den: 1}},
	})
	for _, op := range []struct {
		name        string
		base, armed sim.Time
		want        sim.Time
	}{
		{"remote Put", base.put, armed.put, extra},
		{"remote Get", base.get, armed.get, extra},
		{"remote atomic", base.atomic, armed.atomic, extra},
		{"self Put", base.self, armed.self, 0},
		{"straggler sleep", base.slow, armed.slow, 2 * sim.Microsecond},
	} {
		if d := op.armed - op.base; d != op.want {
			t.Errorf("%s: %d under the plan, %d without, want %d more", op.name, op.armed, op.base, op.want)
		}
	}
	if base.slow != sim.Microsecond {
		t.Errorf("nominal sleep took %d, want %d", base.slow, sim.Microsecond)
	}
}

// TestTypedErrors: CheckAccess returns wrapped sentinel errors matchable
// with errors.Is, and check's panic value is the same error.
func TestTypedErrors(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, 2, netmodel.Default(2))
	w := c.NewUniformWin(64)
	if err := w.CheckAccess(5, 0, 8); !errors.Is(err, ErrRankOutOfRange) {
		t.Errorf("bad rank: err = %v, want ErrRankOutOfRange", err)
	}
	if err := w.CheckAccess(-1, 0, 8); !errors.Is(err, ErrRankOutOfRange) {
		t.Errorf("negative rank: err = %v, want ErrRankOutOfRange", err)
	}
	if err := w.CheckAccess(1, 60, 8); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("overrun: err = %v, want ErrOutOfRange", err)
	}
	if err := w.CheckAccess(1, 0, 64); err != nil {
		t.Errorf("in-range access: err = %v, want nil", err)
	}
	func() {
		defer func() {
			err, ok := recover().(error)
			if !ok || !errors.Is(err, ErrOutOfRange) {
				t.Errorf("check panic value = %v, want error wrapping ErrOutOfRange", err)
			}
		}()
		w.check(0, 1000, 8)
	}()
}

// TestRetryDeterminism: two engines running the same flaky plan finish at
// the same virtual time with identical retry counters.
func TestRetryDeterminism(t *testing.T) {
	plan := fault.PlanFlakyRMA(9)
	plan.RMA.FailProb = 0.2
	run := func() (sim.Time, Stats) {
		buf := make([]byte, 64)
		c, _ := faultHarness(t, 2, plan, func(r *Rank) {
			w := winFor(r)
			if r.ID() == 0 {
				for i := 0; i < 200; i++ {
					w.Put(r, buf, 1, 0)
					r.Flush()
				}
			}
			r.Barrier()
		})
		delete(testWins, c)
		return c.Engine().Now(), c.Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if s1.Retries == 0 {
		t.Fatalf("20%% FailProb caused no retries over 200 flushed Puts")
	}
	if t1 != t2 || s1 != s2 {
		t.Errorf("runs diverged: t=%d/%d stats=%+v/%+v", t1, t2, s1, s2)
	}
}

// TestFetchAndAddExactlyOnce: failures are injected before the memory
// effect, so each retried FetchAndAdd lands exactly once even at a high
// failure rate.
func TestFetchAndAddExactlyOnce(t *testing.T) {
	plan := fault.PlanFlakyRMA(9)
	plan.RMA.FailProb = 0.5
	const perRank = 50
	c, in := faultHarness(t, 4, plan, func(r *Rank) {
		w := winFor(r)
		for i := 0; i < perRank; i++ {
			w.FetchAndAdd(r, 0, 0, 1)
		}
		r.Barrier()
	})
	w := testWins[c]
	delete(testWins, c) // winFor caches per-Comm; don't leak across tests
	if in.Stats().Injected == 0 {
		t.Fatalf("50%% FailProb injected nothing")
	}
	// Rank 0's window segment holds the counter; all 4 ranks added perRank.
	if n := le64(w.Seg(0)); n != 4*perRank {
		t.Errorf("counter = %d after retried FAAs, want %d (exactly-once violated)", n, 4*perRank)
	}
}

func le64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// TestRetriesExhaustedPanics: an op that cannot stop failing hits the
// fault.MaxAttempts fail-stop bound with a typed, errors.Is-able panic.
func TestRetriesExhaustedPanics(t *testing.T) {
	plan := fault.Plan{Name: "always-fail", Seed: 1, RMA: fault.RMAFaults{FailProb: 1}}
	e := sim.NewEngine()
	net := netmodel.Default(2)
	in := fault.NewInjector(plan, 2)
	c := New(e, 2, net)
	c.SetFaults(in)
	w := c.NewUniformWin(64)
	var recovered error
	for i := 0; i < 2; i++ {
		r := c.Rank(i)
		e.Spawn("rank", func(p *sim.Proc) {
			r.Attach(p)
			if r.ID() == 0 {
				defer func() {
					if err, ok := recover().(error); ok {
						recovered = err
					}
				}()
				w.GetUint64(r, 1, 0)
			}
		})
	}
	_ = e.Run() // rank 1 just exits; rank 0 recovers its own panic
	if !errors.Is(recovered, ErrRetriesExhausted) {
		t.Errorf("recovered %v, want error wrapping ErrRetriesExhausted", recovered)
	} else if want := fmt.Sprintf("failed %d attempts", fault.MaxAttempts); !strings.Contains(recovered.Error(), want) {
		t.Errorf("recovered %v, want it to have %s", recovered, want)
	}
}

// chargeInSteps is ChargeAtomic taken the way an idle worker takes it:
// every sleep an AdvanceFunc sleep, every Next an engine-context step.
func chargeInSteps(r *Rank, target int) {
	c := r.StartAtomic(target)
	d, _ := c.Next()
	r.Proc().AdvanceFunc(d, c.Next)
}

// TestAtomicChargeMatchesChargeAtomic: the non-blocking form of the atomic
// charge shares the blocking form's retry loop, so under a flaky plan, with
// a straggler and self-targeted atomics in the mix, both leave the same
// clock and the same traffic and retry counters.
func TestAtomicChargeMatchesChargeAtomic(t *testing.T) {
	plan := fault.PlanFlakyRMA(9)
	plan.RMA.FailProb = 0.3
	run := func(charge func(*Rank, int)) (sim.Time, Stats) {
		c, _ := faultHarness(t, 4, plan, func(r *Rank) {
			if r.ID() == 1 {
				r.SetSlowdown(3, 1)
			}
			for i := 0; i < 100; i++ {
				charge(r, (r.ID()+i)%4)
			}
		})
		return c.Engine().Now(), c.Stats()
	}
	t1, s1 := run((*Rank).ChargeAtomic)
	t2, s2 := run(chargeInSteps)
	if s1.Retries == 0 {
		t.Fatal("30% FailProb caused no retries over 300 remote atomics")
	}
	if t1 != t2 || s1 != s2 {
		t.Errorf("in steps: t=%d stats=%+v; ChargeAtomic: t=%d stats=%+v", t2, s2, t1, s1)
	}
}

// TestAtomicChargeRetriesExhausted: the fail-stop of the retry loop fires
// from a step too, and leaves Run with the typed error.
func TestAtomicChargeRetriesExhausted(t *testing.T) {
	plan := fault.Plan{Name: "always-fail", Seed: 1, RMA: fault.RMAFaults{FailProb: 1}}
	var recovered error
	func() {
		defer func() { recovered, _ = recover().(error) }()
		faultHarness(t, 2, plan, func(r *Rank) {
			if r.ID() == 0 {
				chargeInSteps(r, 1)
			}
		})
	}()
	if !errors.Is(recovered, ErrRetriesExhausted) {
		t.Errorf("recovered %v, want error wrapping ErrRetriesExhausted", recovered)
	}
}

// TestGrowMidFlight is the regression for the Grow rewrite: a Put issued
// before a concurrent-epoch Grow must land in the grown segment, for both
// the in-place (within capacity) and reallocating paths, and only the
// reallocating Grow may move the segment's backing array.
func TestGrowMidFlight(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, 2, netmodel.Default(2))
	w := c.NewWin([]int{64, 64})
	base0, base1 := &w.Seg(0)[0], &w.Seg(1)[0]
	for i := 0; i < 2; i++ {
		r := c.Rank(i)
		e.Spawn("rank", func(p *sim.Proc) {
			r.Attach(p)
			if r.ID() == 0 {
				src := []byte{0xAB, 0xCD}
				w.Put(r, src, 1, 10) // issued against the original segment
				// Grow before the flush: within capacity first (cap is at
				// least 64), then far past it to force reallocation.
				w.Grow(1, 64)
				if &w.Seg(1)[0] != base1 {
					t.Errorf("in-place Grow moved the segment")
				}
				w.Put(r, src, 1, 62)
				w.Grow(1, 4096)
				if &w.Seg(1)[0] == base1 {
					t.Errorf("Grow past capacity did not reallocate the segment")
				}
				w.Put(r, []byte{0xEE}, 1, 4000) // lands in the new segment
				r.Flush()
			}
			r.Barrier()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	seg := w.Seg(1)
	if len(seg) != 4096 {
		t.Fatalf("grown segment length = %d, want 4096", len(seg))
	}
	if seg[10] != 0xAB || seg[11] != 0xCD {
		t.Errorf("pre-Grow Put lost: seg[10:12] = %x", seg[10:12])
	}
	if seg[62] != 0xAB || seg[63] != 0xCD {
		t.Errorf("post-in-place-Grow Put lost: seg[62:64] = %x", seg[62:64])
	}
	if seg[4000] != 0xEE {
		t.Errorf("post-realloc Put lost: seg[4000] = %x", seg[4000])
	}
	if &w.Seg(0)[0] != base0 {
		t.Errorf("untouched rank's segment moved")
	}
}

// TestGrowDuringBank: a Put or Get issued after banked charges must reach
// the segment as it stands at the op's instant. Rank 1 reallocates its
// segment inside each of rank 0's three banks, writing into it after the
// first; rank 0's Get must read that write, and its Put and its PutUint64
// must land in the live segment, as they do when every charge is an
// Advance. The PutUint64 is issued holding its bank, and its store is
// deferred past the third Grow. An op that looked its segment up before
// taking the bank, or at issue for a deferred store, wrote the discarded
// array and read a stale one.
func TestGrowDuringBank(t *testing.T) {
	for _, bank := range []bool{true, false} {
		e := sim.NewEngine()
		if !bank {
			e.NoBank()
		}
		c := New(e, 2, netmodel.Default(2))
		w := c.NewWin([]int{64, 64})
		var got [1]byte
		for i := 0; i < 2; i++ {
			r := c.Rank(i)
			e.Spawn("rank", func(p *sim.Proc) {
				r.Attach(p)
				if r.ID() == 0 {
					p.Charge(10 * sim.Microsecond)
					w.Get(r, 1, 20, got[:])
					p.Charge(10 * sim.Microsecond)
					w.Put(r, []byte{0xAB}, 1, 10)
					p.Charge(10 * sim.Microsecond)
					w.PutUint64(r, 0xC0FFEE, 1, 40)
					r.Flush()
				} else {
					p.Advance(5 * sim.Microsecond)
					w.Grow(1, 4096) // past capacity: a new array
					w.Seg(1)[20] = 0x77
					p.Advance(15 * sim.Microsecond)
					w.Grow(1, 1<<16)
					p.Advance(10 * sim.Microsecond)
					w.Grow(1, 1<<17)
				}
				r.Barrier()
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if seg := w.Seg(1); seg[10] != 0xAB || got[0] != 0x77 || binary.LittleEndian.Uint64(seg[40:]) != 0xC0FFEE {
			t.Errorf("bank=%v: the Put left seg[10] = %#x (want 0xab), the Get read %#x (want 0x77), the PutUint64 left %#x (want 0xc0ffee)",
				bank, seg[10], got[0], binary.LittleEndian.Uint64(seg[40:]))
		}
	}
}

// TestGrowShrinkRequestIgnored: Grow to a smaller size is a no-op.
func TestGrowShrinkRequestIgnored(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, 1, netmodel.Default(1))
	w := c.NewUniformWin(128)
	w.Grow(0, 16)
	if len(w.Seg(0)) != 128 {
		t.Errorf("Grow shrank the segment to %d", len(w.Seg(0)))
	}
}

// TestBarrierWithStraggler: Barrier completes when one rank runs 10×
// slower, and the fast ranks wait for it (satellite: straggler-tolerant
// collective).
func TestBarrierWithStraggler(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, 4, netmodel.Default(2))
	work := 100 * sim.Microsecond
	var after [4]sim.Time
	for i := 0; i < 4; i++ {
		r := c.Rank(i)
		e.Spawn("rank", func(p *sim.Proc) {
			if r.ID() == 1 {
				r.SetSlowdown(10, 1)
			}
			r.Attach(p)
			p.Advance(work)
			r.Barrier()
			after[r.ID()] = p.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, ts := range after {
		if ts < 10*work {
			t.Errorf("rank %d left the barrier at %d, before the straggler's %d of compute",
				i, ts, 10*work)
		}
	}
}

// TestFaultFreeHotPathZeroAllocs pins the zero-overhead-when-off claim at
// the allocation level: with no injector armed, the retry/perturbation
// hooks on Put/Flush and the atomics are single nil-checks and must not
// allocate per operation.
func TestFaultFreeHotPathZeroAllocs(t *testing.T) {
	run := func(ops int) {
		e := sim.NewEngine()
		c := New(e, 2, netmodel.Default(2))
		w := c.NewUniformWin(1 << 12)
		buf := make([]byte, 64)
		for i := 0; i < 2; i++ {
			r := c.Rank(i)
			e.Spawn("rank", func(p *sim.Proc) {
				r.Attach(p)
				if r.ID() == 0 {
					for j := 0; j < ops; j++ {
						w.Put(r, buf, 1, 0)
						r.Flush()
						w.FetchAndAdd(r, 1, 128, 1)
					}
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Error(err)
		}
	}
	const extra = 2048
	small := testing.AllocsPerRun(5, func() { run(64) })
	big := testing.AllocsPerRun(5, func() { run(64 + extra) })
	perOp := (big - small) / extra
	if perOp > 0.01 {
		t.Fatalf("%.4f allocations per RMA op with faults off (small %.1f, big %.1f), want 0",
			perOp, small, big)
	}
}

package sim

import (
	"testing"
	"unsafe"
)

// The fast-path licence says Advance(d) may skip the queue only when no
// queued event fires at or before now+d. These tests pin the edges of that
// condition.

// TestAdvanceZeroInterleavesWithCallbacks checks that Advance(0) still
// takes the slow path and lets same-instant callbacks scheduled earlier
// run first (FIFO), even when the fast path is available for d > 0.
func TestAdvanceZeroInterleavesWithCallbacks(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("p", func(p *Proc) {
		e.After(0, func() { order = append(order, "cb") })
		p.Advance(0)
		order = append(order, "proc")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "cb" || order[1] != "proc" {
		t.Fatalf("order = %v, want [cb proc]", order)
	}
}

// TestEventAtExactDeadlineWins checks that an event scheduled at exactly
// now+d fires before Advance(d) returns: it was scheduled first, so FIFO
// tie-breaking puts it ahead of the advancing process.
func TestEventAtExactDeadlineWins(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("p", func(p *Proc) {
		e.After(100, func() { order = append(order, "cb@100") })
		p.Advance(100)
		order = append(order, "proc@100")
		if p.Now() != 100 {
			t.Errorf("now = %d, want 100", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "cb@100" || order[1] != "proc@100" {
		t.Fatalf("order = %v, want [cb@100 proc@100]", order)
	}
}

// TestFastPathDoesNotSkipLaterEvents checks that a fast-path Advance stops
// exactly at now+d and leaves strictly-later events for their own instants:
// interleaving two processes with different strides must produce the same
// schedule the slow path would.
func TestFastPathDoesNotSkipLaterEvents(t *testing.T) {
	e := NewEngine()
	type tick struct {
		who string
		at  Time
	}
	var ticks []tick
	e.Spawn("fine", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Advance(100)
			ticks = append(ticks, tick{"fine", p.Now()})
		}
	})
	e.Spawn("coarse", func(p *Proc) {
		p.Advance(450)
		ticks = append(ticks, tick{"coarse", p.Now()})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []tick{
		{"fine", 100}, {"fine", 200}, {"fine", 300}, {"fine", 400},
		{"coarse", 450},
		{"fine", 500}, {"fine", 600}, {"fine", 700}, {"fine", 800},
		{"fine", 900}, {"fine", 1000},
	}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v", ticks)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks[%d] = %v, want %v (full: %v)", i, ticks[i], want[i], ticks)
		}
	}
}

// TestWakePermitAcrossFastAdvance checks the Wake-permit interaction with
// the coalesced handoff: a Wake delivered while the target is mid-Advance
// (including fast-path segments) must be stored as a permit and consumed by
// the next Park without yielding the clock.
func TestWakePermitAcrossFastAdvance(t *testing.T) {
	e := NewEngine()
	var target *Proc
	var parkReturned Time
	target = e.Spawn("t", func(p *Proc) {
		p.Advance(10) // slow path: waker's resume is queued at 5
		p.Advance(10) // fast path: queue is empty again
		p.Park()      // must consume the permit stored at t=5
		parkReturned = p.Now()
	})
	e.Spawn("w", func(p *Proc) {
		p.Advance(5)
		target.Wake()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if parkReturned != 20 {
		t.Fatalf("Park returned at %d, want 20 (permit consumed without yielding)", parkReturned)
	}
}

// TestWakeOrderingWithCoalescedHandoff checks that Wake schedules the
// resume FIFO at the current instant: two processes woken in one instant
// resume in wake order, and the waker continues first (its Advance resume
// was queued before the wakes).
func TestWakeOrderingWithCoalescedHandoff(t *testing.T) {
	e := NewEngine()
	var order []string
	mk := func(name string) *Proc {
		return e.Spawn(name, func(p *Proc) {
			p.Park()
			order = append(order, name)
		})
	}
	a := mk("a")
	b := mk("b")
	e.Spawn("w", func(p *Proc) {
		p.Advance(50)
		a.Wake()
		b.Wake()
		p.Advance(0)
		order = append(order, "w")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The Advance(0) resume is queued after both wakes, so a and b run
	// first, in wake order.
	want := []string{"a", "b", "w"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestCurrentDuringFastPath checks that Current tracks the running process
// across fast-path advances and coalesced self-resumes.
func TestCurrentDuringFastPath(t *testing.T) {
	e := NewEngine()
	var sawFast, sawSlow *Proc
	var me *Proc
	me = e.Spawn("p", func(p *Proc) {
		p.Advance(7) // fast path (empty queue)
		sawFast = e.Current()
		e.After(3, func() {
			if e.Current() != nil {
				t.Errorf("Current() = %v inside callback, want nil", e.Current())
			}
		})
		p.Advance(3) // slow path: callback at the same deadline fires first
		sawSlow = e.Current()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sawFast != me || sawSlow != me {
		t.Fatalf("Current() = %v / %v, want %v", sawFast, sawSlow, me)
	}
}

// TestSteadyStateDispatchZeroAllocs verifies the pooled-event claim: once
// the engine's heap slice has warmed up and every process has its carrier,
// event dispatch — fast-path advances, slow-path interleavings, coalesced
// handoffs, switches between two processes in lockstep, Park/Wake rounds,
// the steps of an AdvanceFunc and a barrier's round of keyed wakes alike —
// performs zero heap allocations per event.
func TestSteadyStateDispatchZeroAllocs(t *testing.T) {
	run := func(rounds int) {
		e := NewEngine()
		for pi := 0; pi < 2; pi++ {
			e.Spawn("p", func(p *Proc) {
				for i := 0; i < rounds; i++ {
					p.Advance(10) // both procs stride together: a switch each
				}
			})
		}
		e.Spawn("solo", func(p *Proc) {
			for i := 0; i < rounds; i++ {
				p.Advance(1 << 40) // far beyond the others: fast path
			}
		})
		consumer := e.Spawn("consumer", func(p *Proc) {
			for i := 0; i < rounds; i++ {
				p.Park() // switches out, and back in on the producer's next yield
			}
		})
		e.Spawn("producer", func(p *Proc) {
			for i := 0; i < rounds; i++ {
				p.Advance(10)
				consumer.Wake()
			}
		})
		e.Spawn("stepper", func(p *Proc) {
			steps := 0
			p.AdvanceFunc(10, func() (Time, bool) { // strides with the others: queued sleeps
				steps++
				return 10, steps == rounds
			})
		})
		bar := newMiniBarrier(2, 10)
		for rank := range bar.procs {
			bar.procs[rank] = e.Spawn("rank", func(p *Proc) {
				for i := 0; i < rounds; i++ {
					p.Advance(10)
					bar.wait(p, rank) // a keyed wake per rank: the resume itself, no closure
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	const extra = 4096
	small := testing.AllocsPerRun(5, func() { run(64) })
	big := testing.AllocsPerRun(5, func() { run(64 + extra) })
	perEvent := (big - small) / (8 * extra)
	if perEvent > 0.001 {
		t.Fatalf("%.4f allocations per event (small run %.1f, big run %.1f), want 0",
			perEvent, small, big)
	}
}

// TestWideIdleDispatchZeroAllocs is the zero-allocation claim at width: the
// shape of a fork-join region on thousands of ranks with little parallelism,
// where almost every rank idles in AdvanceFunc at once and the queue holds
// one sleep per rank. Once the heap, the slab and its free list have grown
// to that width, every further event allocates nothing.
func TestWideIdleDispatchZeroAllocs(t *testing.T) {
	const width = 1024
	run := func(rounds int) {
		e := NewEngine()
		for rank := 0; rank < width; rank++ {
			e.Spawn("idle", func(p *Proc) {
				steps := 0
				p.AdvanceFunc(10, func() (Time, bool) { // tick, CAS, backoff: three lengths
					steps++
					return Time(10 + 7*(steps%3) + rank%5), steps == rounds
				})
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	const extra = 64
	small := testing.AllocsPerRun(3, func() { run(8) })
	big := testing.AllocsPerRun(3, func() { run(8 + extra) })
	perEvent := (big - small) / (width * extra)
	if perEvent > 0.001 {
		t.Fatalf("%.4f allocations per event (small run %.1f, big run %.1f), want 0",
			perEvent, small, big)
	}
}

// TestBarrierDispatchZeroAllocs is the zero-allocation claim for a
// barrier-paced SPMD loop at width: ranks that sleep behind a queue deep
// enough for their resumes to take a lane, then wait at a barrier whose
// release fills the wake run. Once the heap, the slab and the lane blocks
// have grown to that width, every further event allocates nothing.
func TestBarrierDispatchZeroAllocs(t *testing.T) {
	const width = 1024
	run := func(rounds int) {
		e := NewEngine()
		bar := newMiniBarrier(width, 1200)
		for rank := range bar.procs {
			bar.procs[rank] = e.Spawn("rank", func(p *Proc) {
				for i := 0; i < rounds; i++ {
					p.Advance(Time(120 + 130*(rank%3)))
					bar.wait(p, rank)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	const extra = 64
	small := testing.AllocsPerRun(3, func() { run(8) })
	big := testing.AllocsPerRun(3, func() { run(8 + extra) })
	perEvent := (big - small) / (2 * width * extra)
	if perEvent > 0.001 {
		t.Fatalf("%.4f allocations per event (small run %.1f, big run %.1f), want 0",
			perEvent, small, big)
	}
}

func emptyBody(*Proc) {}

// TestSpawnReusesCarrier verifies the pooled-carrier claim: a process that
// starts after another has finished costs its Proc and nothing else — no
// coroutine set-up, which is a dozen allocations, and fewer than the three
// (Proc, resume channel, goroutine closure) the channel kernel paid.
func TestSpawnReusesCarrier(t *testing.T) {
	run := func(spawns int) {
		e := NewEngine()
		e.Spawn("parent", func(p *Proc) {
			for i := 0; i < spawns; i++ {
				e.Spawn("child", emptyBody)
				p.Advance(1) // the child runs and exits meanwhile
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	const extra = 4096
	small := testing.AllocsPerRun(5, func() { run(64) })
	big := testing.AllocsPerRun(5, func() { run(64 + extra) })
	if perSpawn := (big - small) / extra; perSpawn > 1.001 {
		t.Fatalf("%.3f allocations per Spawn (small run %.1f, big run %.1f), want 1",
			perSpawn, small, big)
	}
}

// TestProcStaysInItsSizeClass: a Proc is allocated per Spawn, that is per
// Fork. At 104 bytes it moves from the allocator's 96-byte class to the
// 112-byte one, which a 1-rank fork-join measured as +7% (EXPERIMENTS.md,
// "The stackless idle loop").
func TestProcStaysInItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Proc{}); size > 96 {
		t.Fatalf("Proc is %d bytes, want at most 96", size)
	}
}

// TestEngineStaysInItsSizeClass: an Engine is allocated once per run, but
// every event touches it. Three versions of the banked charges that moved
// it from the allocator's 1,152-byte class to the 1,280-byte one read
// halo-4096r 4–10% slower; the one that kept it in its class did not
// (PITFALLS.md, "layout moves host time").
func TestEngineStaysInItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Engine{}); size > 1152 {
		t.Fatalf("Engine is %d bytes, want at most 1152", size)
	}
}

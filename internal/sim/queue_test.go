package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// event, eventLess, heapPush and heapPop are the queue the kernel had before
// its heap went pointer-free: a 4-ary min-heap of by-value events, sifted by
// swapping. They are kept here, unchanged, as the oracle the engine's queue
// is checked against.
type event struct {
	at    Time
	key   uint64
	proc  *Proc
	fire  func()
	wake  bool
	steps bool
}

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
}

func heapPush(q []event, ev event) []event {
	q = append(q, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(&q[i], &q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	return q
}

func heapPop(q []event) (event, []event) {
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{}
	q = q[:n]
	i := 0
	for {
		min := i
		base := 4*i + 1
		end := base + 4
		if end > n {
			end = n
		}
		for c := base; c < end; c++ {
			if eventLess(&q[c], &q[min]) {
				min = c
			}
		}
		if min == i {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return top, q
}

// TestQueueMatchesEventHeap drives the engine's queue and the oracle heap
// with the same seeded random interleavings of pushes and pops — many events
// per instant, FIFO and keyed keys mixed, resumes and callbacks, and drains
// to empty followed by regrowth, so slab entries are reused — and requires
// the same (at, key, proc, fire, wake, steps) from every pop of both.
func TestQueueMatchesEventHeap(t *testing.T) {
	procs := make([]*Proc, 16)
	for i := range procs {
		procs[i] = &Proc{Name: "p"}
	}
	var fired int // which callback ran: the oracle's and the engine's must agree
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var oracle []event
		var seq uint64
		var now Time
		queued := map[[2]uint64]bool{} // (at, key) of every queued event
		pops, peak := 0, 0
		push := func() {
			at := now + Time(rng.Intn(4)) // few instants: many ties on at
			ev := event{at: at}
			if rng.Intn(3) == 0 {
				for {
					ev.key = keyedBase | uint64(rng.Intn(64)) // unique per instant
					if !queued[[2]uint64{uint64(at), ev.key}] {
						break
					}
				}
				ev.proc, ev.wake = procs[rng.Intn(len(procs))], true
			} else {
				seq++
				ev.key = seq
				if rng.Intn(2) == 0 {
					ev.proc, ev.steps = procs[rng.Intn(len(procs))], rng.Intn(2) == 0
				} else {
					id := int(seq)
					ev.fire = func() { fired = id }
				}
			}
			queued[[2]uint64{uint64(at), ev.key}] = true
			oracle = heapPush(oracle, ev)
			e.push(slot{at: ev.at, key: ev.key, wake: ev.wake, steps: ev.steps}, payload{proc: ev.proc, fire: ev.fire})
			if len(oracle) > peak {
				peak = len(oracle)
			}
		}
		pop := func() {
			var want event
			want, oracle = heapPop(oracle)
			s, got := e.pop()
			pops++
			if s.at != want.at || s.key != want.key || s.wake != want.wake || s.steps != want.steps ||
				got.proc != want.proc || (got.fire == nil) != (want.fire == nil) {
				t.Fatalf("seed %d pop %d: got %+v %+v, want %+v", seed, pops, s, got, want)
			}
			if want.fire != nil {
				want.fire()
				w := fired
				got.fire()
				if fired != w {
					t.Fatalf("seed %d pop %d: fired callback %d, want %d", seed, pops, fired, w)
				}
			}
			delete(queued, [2]uint64{uint64(want.at), want.key})
			now = want.at
		}
		for round := 0; round < 200; round++ {
			for n := rng.Intn(40); n > 0; n-- {
				push()
			}
			for n := rng.Intn(40); n > 0 && len(oracle) > 0; n-- {
				pop()
			}
			if rng.Intn(10) == 0 {
				for len(oracle) > 0 {
					pop()
				}
			}
			if len(e.queue) != len(oracle) {
				t.Fatalf("seed %d round %d: %d queued, oracle has %d", seed, round, len(e.queue), len(oracle))
			}
		}
		for len(oracle) > 0 {
			pop()
		}
		if len(e.slab) != peak {
			t.Errorf("seed %d: slab of %d entries for a queue at most %d long; freed entries are not being reused", seed, len(e.slab), peak)
		}
	}
}

// TestSlotHoldsNoPointer pins the point of the heap's layout: a slot has no
// pointer-typed field, so moving one needs no GC write barrier and the GC
// never scans the heap. A slot and a payload together are the 40 bytes the
// by-value event was: nothing is stored twice.
func TestSlotHoldsNoPointer(t *testing.T) {
	typ := reflect.TypeOf(slot{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint:
		default:
			t.Errorf("slot.%s is a %s; a slot must hold no pointer", f.Name, f.Type)
		}
	}
	if s, p := unsafe.Sizeof(slot{}), unsafe.Sizeof(payload{}); s != 24 || p != 16 {
		t.Errorf("sizeof(slot) = %d, sizeof(payload) = %d, want 24 and 16", s, p)
	}
}

// TestSlabHoldsNothingAfterRun checks the GC guarantee pop keeps by clearing
// the payloads it frees: once Run returns, no slab entry references a process
// or a closure — after a run that ends cleanly and after a deadlock alike.
func TestSlabHoldsNothingAfterRun(t *testing.T) {
	for _, deadlock := range []bool{false, true} {
		e := NewEngine()
		bar := newMiniBarrier(4, 10)
		for rank := range bar.procs {
			bar.procs[rank] = e.Spawn("rank", func(p *Proc) {
				for i := 0; i < 8; i++ {
					p.Advance(Time(rank + 1))
					bar.wait(p, rank)
				}
				steps := 0
				p.AdvanceFunc(3, func() (Time, bool) {
					steps++
					return Time(rank + 1), steps == 8
				})
			})
		}
		for i := 0; i < 8; i++ {
			e.After(Time(5*i), func() {})
		}
		if deadlock {
			e.Spawn("stuck", func(p *Proc) { p.Park() })
		}
		if err := e.Run(); (err != nil) != deadlock {
			t.Fatalf("deadlock=%v: Run returned %v", deadlock, err)
		}
		if len(e.queue) != 0 || len(e.slab) == 0 {
			t.Fatalf("deadlock=%v: %d queued, slab of %d", deadlock, len(e.queue), len(e.slab))
		}
		for i, pl := range e.slab {
			if pl.proc != nil || pl.fire != nil {
				t.Errorf("deadlock=%v: slab[%d] still references proc %v, fire set %v", deadlock, i, pl.proc, pl.fire != nil)
			}
		}
	}
}

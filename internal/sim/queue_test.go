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

// fired is which callback ran: the oracle's and the engine's must agree.
var fired int

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

// TestEngineMatchesEventHeap drives the engine through the entry points the
// kernel itself queues events with — sleeps (of a process in AdvanceFunc,
// which go to the lane for their length d or, when every lane queues sleeps
// of another length and kind, to the heap; and of one that is not, which go
// to the heap while it is shallow and to a lane of their own kind while it
// is deep), At callbacks, FIFO resumes and keyed wakes (in random order,
// and as barrier releases: runs of ascending keys at one instant) — many at
// the same instants, and pops them as dispatch does, against the oracle heap
// fed the same events. Every pop must match, and before pops a fastAdvance
// must go ahead exactly when the oracle has nothing queued at or before
// now+d. Bursts of sleeps of one length make lanes span several blocks;
// bursts of callbacks make the heap deep; drains to empty reset them. Each
// seed must send ordinary sleeps to lanes, keyed wakes to the wake run and
// keyed wakes that sort before its tail to the heap.
func TestEngineMatchesEventHeap(t *testing.T) {
	step := func() (Time, bool) { return 0, true }
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		procs := make([]*Proc, 16)
		for i := range procs {
			procs[i] = &Proc{Name: "p", eng: e}
			if i%2 == 0 {
				procs[i].step = step // in AdvanceFunc: its sleeps are step sleeps
			}
		}
		// Sleep lengths: a few common ones, and more distinct ones than the lane
		// table holds, so some step sleeps overflow to the heap.
		length := func() Time {
			if rng.Intn(2) == 0 {
				return Time(1 + rng.Intn(3))
			}
			return Time(rng.Intn(sleepLanes + 8))
		}
		var oracle []event
		var seq uint64
		queued := map[[2]uint64]bool{} // (at, key) of every queued keyed wake
		pops, peak := 0, 0
		laned, run, heaped := 0, 0, 0 // ordinary sleeps on a lane; keyed wakes on the run, on the heap
		add := func(ev event) {
			oracle = heapPush(oracle, ev)
			peak = max(peak, len(oracle))
		}
		sleep := func(d Time) {
			p := procs[rng.Intn(len(procs))]
			seq++
			add(event{at: e.now + d, key: seq, proc: p, steps: p.step != nil})
			n := len(e.queue)
			e.sleep(p, d)
			if p.step == nil && len(e.queue) == n {
				if n < deepQueue {
					t.Fatalf("seed %d: an ordinary sleep joined a lane at heap depth %d", seed, n)
				}
				laned++
			}
		}
		wake := func(at Time, k uint64) {
			queued[[2]uint64{uint64(at), keyedBase | k}] = true
			q := procs[rng.Intn(len(procs))]
			add(event{at: at, key: keyedBase | k, proc: q, wake: true})
			n := len(e.queue)
			procs[0].ScheduleWake(q, at, k)
			if len(e.queue) == n {
				run++
			} else {
				heaped++
			}
		}
		// unused returns the least key from k up that no keyed wake queued at
		// at has.
		unused := func(at Time, k uint64) uint64 {
			for queued[[2]uint64{uint64(at), keyedBase | k}] {
				k++
			}
			return k
		}
		push := func() {
			at := e.now + Time(rng.Intn(4))
			switch rng.Intn(6) {
			case 0, 1, 2:
				sleep(length())
			case 3:
				seq++
				id := int(seq)
				ev := event{at: at, key: seq}
				ev.fire = func() { fired = id }
				add(ev)
				e.At(at, ev.fire)
			case 4:
				p := procs[2*rng.Intn(len(procs)/2)+1] // not in AdvanceFunc
				seq++
				add(event{at: at, key: seq, proc: p})
				e.scheduleResume(p, at)
			case 5:
				wake(at, unused(at, uint64(rng.Intn(64)))) // unique per instant
			}
		}
		// release queues a barrier's wakes: ascending keys at one instant.
		release := func() {
			at, k := e.now+Time(rng.Intn(4)), uint64(rng.Intn(64))
			for n := 1 + rng.Intn(24); n > 0; n-- {
				k = unused(at, k)
				wake(at, k)
			}
		}
		pop := func() {
			if d := Time(rng.Intn(6)); rng.Intn(4) == 0 {
				want := d > 0 && (len(oracle) == 0 || oracle[0].at > e.now+d)
				before := e.now
				if got := e.fastAdvance(d); got != want {
					t.Fatalf("seed %d pop %d: fastAdvance(%d) at %d = %v, want %v", seed, pops, d, before, got, want)
				}
			}
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
			e.now = s.at
		}
		for round := 0; round < 200; round++ {
			for n := rng.Intn(40); n > 0; n-- {
				push()
			}
			if rng.Intn(8) == 0 {
				d := length()
				for n := rng.Intn(3 * laneBlockLen); n > 0; n-- {
					sleep(d)
				}
			}
			if rng.Intn(4) == 0 {
				release()
			}
			if rng.Intn(8) == 0 {
				for n := deepQueue + rng.Intn(64); len(e.queue) < n; {
					seq++
					ev := event{at: e.now + Time(rng.Intn(64)), key: seq, fire: func() {}}
					add(ev)
					e.At(ev.at, ev.fire)
				}
				for n := rng.Intn(80); n > 0; n-- {
					sleep(length())
				}
			}
			for n := rng.Intn(60); n > 0 && len(oracle) > 0; n-- {
				pop()
			}
			if rng.Intn(10) == 0 {
				for len(oracle) > 0 {
					pop()
				}
			}
			if n := queuedEvents(e); n != len(oracle) {
				t.Fatalf("seed %d round %d: %d queued, oracle has %d", seed, round, n, len(oracle))
			}
		}
		for len(oracle) > 0 {
			pop()
		}
		if e.first != nil || e.nlanes != sleepLanes {
			t.Fatalf("seed %d: drained with first lane %v, %d of %d lanes bound", seed, e.first, e.nlanes, sleepLanes)
		}
		if laned == 0 || run == 0 || heaped == 0 {
			t.Fatalf("seed %d: %d ordinary sleeps on a lane, %d keyed wakes on the wake run and %d on the heap; want some of each", seed, laned, run, heaped)
		}
		blocks := 0
		for b := e.spare; b != nil; b = b.next {
			blocks++
		}
		if blocks == 0 {
			t.Errorf("seed %d: no spare block after the bursts; no lane ever spanned two blocks", seed)
		}
		for _, l := range append(e.lanes[:], e.wakes) {
			for b := l.head; b != nil; b = b.next {
				blocks++
			}
		}
		if most := 2*(sleepLanes+1) + peak/laneBlockLen; blocks > most {
			t.Errorf("seed %d: lanes hold %d blocks for at most %d entries queued, want at most %d; spare blocks are not being reused", seed, blocks, peak, most)
		}
	}
}

// queuedEvents is how many events e has queued, on its heap, its lanes and
// its wake run.
func queuedEvents(e *Engine) int {
	n := len(e.queue) + e.wakes.n
	for i := range e.lanes {
		n += e.lanes[i].n
	}
	return n
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
// or a closure, and no lane entry — in a lane's blocks, the wake run's or a
// spare one — a process, after a run that ends cleanly and after a deadlock
// alike.
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
		if e.nlanes == 0 || e.wakes.head == nil || queuedEvents(e) != 0 {
			t.Fatalf("deadlock=%v: %d lanes used, wake run used %v, %d events queued", deadlock, e.nlanes, e.wakes.head != nil, queuedEvents(e))
		}
		chains := []*laneBlock{e.spare, e.wakes.head}
		for i := range e.lanes {
			chains = append(chains, e.lanes[i].head)
		}
		for _, b := range chains {
			for ; b != nil; b = b.next {
				for i, r := range b.rs {
					if r.proc != nil {
						t.Errorf("deadlock=%v: lane entry %d still references proc %v", deadlock, i, r.proc)
					}
				}
			}
		}
	}
}

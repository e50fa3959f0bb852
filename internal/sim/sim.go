// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel drives a set of simulated processes under a single virtual
// clock. Exactly one process executes at any instant. A process body runs
// on a carrier — a coroutine (carrier.go) — and the goroutine that called
// Run is a trampoline: it switches into the process whose resume it popped
// and, when that process yields, into the process the yield names, until a
// yield names none. Every switch stays on the driver's thread, so all
// engine and process state is accessed by one thread of control at a time
// and no locking is required. Given identical inputs, a simulation is
// bit-reproducible.
//
// Time is measured in integer nanoseconds of virtual time. Ties between
// events scheduled for the same instant are broken by scheduling order
// (FIFO), which keeps runs deterministic.
//
// # Host performance
//
// The one-at-a-time invariant is also the kernel's fast-path licence:
// whichever process currently runs owns every piece of engine state
// outright, so it may mutate the clock and the event queue directly instead
// of asking the driver to do it. Nine consequences:
//
//   - Zero-handoff Advance: when no queued event fires at or before now+d,
//     Advance(d) simply sets now += d and returns — no switch, no
//     event-queue traffic. This is the overwhelmingly common case for the
//     per-operation costs (MsgOverhead, serialization, flush waits) that
//     the RMA and scheduler layers charge.
//   - Coalesced handoffs: when Advance or Park must interleave with queued
//     events, the yielding process runs the dispatch loop inline. Callbacks
//     fire on the spot, and if the next event resumes the very process that
//     yielded, it just keeps running — a handoff costs two coroutine
//     switches (out to the driver, in to the target) only when control
//     genuinely moves to a different process.
//   - A pointer-free queue: the heap is a concrete 4-ary min-heap of
//     24-byte (at, key, index) slots with no pointer in them, over a slab
//     holding each event's process or closure. A sift moves a hole and
//     writes the placed slot once; nothing it moves needs a GC write barrier
//     and the GC never scans the heap. Slab entries are recycled, so
//     steady-state dispatch performs zero heap allocations per event.
//   - Pooled carriers: a body that returns leaves its carrier, with its
//     grown stack, for the next process that starts, so a fork-join tree
//     of short-lived processes costs one Proc allocation per Spawn and no
//     coroutine set-up. Run stops the pooled carriers before it returns:
//     after a Run that ends without a deadlock the kernel holds no
//     goroutine.
//   - Stepped sleeps: a process that mostly waits — an idle worker polling
//     for work — sleeps with AdvanceFunc, handing the kernel the function
//     to call each time a sleep ends. Whoever pops the resume calls it on
//     the spot, as it would an At callback, and queues the next sleep; the
//     process is switched in only when the function says there is
//     something for it to do. The events, their times and their FIFO keys
//     are those of the process looping over Advance itself; the two
//     switches per iteration, and the cold stack they touch, are gone.
//   - Keyed wakes are resumes: the event Proc.ScheduleWake queues — a
//     barrier queues one per rank — is the resume of its target, not a
//     callback that calls Wake and so queues the resume as a second event
//     at the same instant. One event, one push and pop, and no
//     allocation per wake; the schedule is exactly that of the two-event
//     form (the argument is on the slot type).
//   - Sleep lanes: the resume that ends a sleep may skip the heap and join
//     a FIFO lane for its sleep length d and kind (a stepped sleep or an
//     ordinary Advance), one of a small fixed table. A stepped sleep always
//     joins one; an ordinary sleep joins one only while the heap is deep
//     (deepQueue), because on a shallow heap a push and pop are cheaper than
//     the lane lookup and the scan for the earliest head. A fork-join region
//     on thousands of ranks with little parallelism is almost all stepped
//     resumes, of very few lengths (an idle worker's tick, steal CAS and
//     backoff: nine in all), and an SPMD stencil on thousands of ranks is
//     almost all sleeps of a few lengths (issue overhead, compute charge,
//     flush waits: five in all), so a thousands-deep heap becomes a handful
//     of queues. A lane needs no sorting: every resume in it is queued at
//     now+d for its one d, the clock never runs backwards and FIFO keys only
//     grow, so its entries arrive in (at, key) order and its head is its
//     minimum.
//   - One wake run: a keyed wake that sorts after the last one queued joins
//     a single FIFO of keyed wakes instead of the heap, and one that does
//     not goes to the heap. A barrier queues its n wakes at one instant in
//     rank order, so its whole release is one sorted run: n appends and n
//     pops at the head, where the heap paid n sifts each way.
//   - Banked charges: Proc.Charge is an Advance that does not happen yet.
//     It adds the sleep to a bank, and Now reads the clock plus the bank,
//     so the process runs on at the instant the sleeps will have taken it
//     to. The bank is taken by Sync, which every other kernel entry calls
//     first, as one AdvanceFunc whose steps hand out the banked sleeps in
//     order: each sleep ends, in engine context, at the instant and with
//     the FIFO key the process looping over Advance would have given it,
//     because a step takes its next sleep's key where that loop would —
//     when the sleep before it ends — and nothing the process did between
//     two charges could be seen by anyone else. A run of charges that
//     interleaves with other processes costs one switch out and one in
//     instead of a pair per charge. That last premise is the caller's to
//     keep: code between a Charge and the next kernel entry must touch
//     nothing another process reads or writes (the layers Sync before
//     they do). Only the running process can hold a bank, so its total
//     lives on the Engine; its first sleep is on the Proc and the rest,
//     which a replay hands out, on the process's carrier. A bank of one
//     sleep is taken as that sleep's Advance. A bank is summed at the time
//     scale in force when each charge is made, so a process's scale may
//     change only while it holds no bank: SetTimeScale on itself syncs
//     first, and on a process replaying its bank it panics.
//
// A pop takes the earliest of the heap's top and the lane and run heads, and
// the zero-handoff test looks at all of them; the order is total, so the
// sequence popped is the heap-only one. Lanes and the run keep their entries
// in 4 KiB blocks drawn from one spare list, so they hold about as many
// blocks as resumes are queued.
//
// None of this changes simulated timestamps: the fast paths are taken only
// when the slow path would produce the identical schedule, and the golden
// digest tests in internal/bench pin that equivalence down.
//
// # Engine context: At callbacks and AdvanceFunc steps
//
// A callback scheduled with At and a step handed to AdvanceFunc run between
// process executions, on the stack of whatever is dispatching: the driver,
// or a process that yielded and is running the event loop inline. Both may
// read and write simulation state, schedule callbacks (At, After) and Wake
// processes; neither may block — there is no process
// of their own to suspend. A step that calls Advance, Park or AdvanceFunc
// on its process panics with a message naming the call. During a step
// Engine.Current is the stepping process (during a callback it is nil).
// A step does not always run in engine context: after a sleep that took
// the zero-handoff fast path its own process calls it. It must not care.
//
// # Panics and Goexit in a process body
//
// A body's panic, and a runtime.Goexit such as t.Fatal's, ends its carrier
// and is re-raised on the driver, so it leaves Run on the goroutine that
// called it: the panic with the value the body gave, though with the
// driver's stack, not the body's. The run is over at that point; processes
// suspended mid-body keep their carriers, as the parked processes of a
// deadlock do — they could only be unwound by running their deferred calls
// against a dead engine. A panic in engine context — a callback's or a
// step's — unwinds the stack it ran on: straight out of Run when that is the
// driver's; otherwise through the body of the process that was dispatching,
// whose deferred calls run (and may recover it) as if the panic were its
// own, and from there out of Run the same way.
//
// An engine uses one host thread (DESIGN.md §8 has the reason); engines
// share nothing, so independent simulations may run side by side.
package sim

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time = int64

// Common durations, in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// slot is one entry of the event queue's heap: the event's place in the
// order, how it resumes a process, and the index of its payload in
// Engine.slab. A slot holds no pointer (TestSlotHoldsNoPointer), so the
// heap's moves are plain 24-byte copies and the GC never scans it.
//
// key is the tie-break within an instant. Events created in engine or
// process context get the next value of a FIFO counter (scheduling order);
// events created by Proc.ScheduleWake carry a caller-chosen key in a space
// that sorts after all FIFO keys, so their relative order is a property of
// the workload (e.g. rank number), not of who scheduled first. A FIFO key is
// never reused and a keyed one is unique per instant, so no two queued
// events tie on (at, key): the order is total, and any correct min-heap pops
// the one sequence it defines (TestQueueMatchesEventHeap) — as does any
// merge of the heap with sorted lanes and the sorted wake run
// (TestEngineMatchesEventHeap).
//
// # A keyed wake is a resume
//
// ScheduleWake's event is the resume of its target itself, marked wake:
// whoever pops it does what Proc.Wake does, except that a parked target is
// handed the CPU in that very event instead of through a second, FIFO-keyed
// resume queued at the same instant. The schedule is the one that second
// event gave, by construction. A keyed key sorts after every FIFO key of its
// instant, so when a keyed wake is popped nothing else of that instant is
// left on the queue but keyed wakes with larger keys; the resume Wake
// pushed — same instant, a FIFO key — was therefore always the very next
// pop, with nothing between the two but the push. Not queueing it also takes
// one value out of the FIFO counter per wake, the same for every later
// event, and keys are only ever compared: every later pair of keys keeps its
// order. Every simulated time, every digest, Handoffs and FastAdvances are
// what they were with the two-event form; Callbacks is lower by one per
// keyed wake and Events by one per keyed wake that found its target parked —
// ranks × barriers on a barrier-paced program.
type slot struct {
	at  Time
	key uint64
	ev  int32 // index of the payload in Engine.slab
	// wake marks a resume queued by ScheduleWake: the process is resumed only
	// if it is parked when the event is popped, and is granted a permit
	// otherwise.
	wake bool
	// steps marks a resume that ends a sleep of AdvanceFunc: whoever pops it
	// runs the process's step. It rides on the event so that an ordinary
	// resume costs dispatch no look at a process that may be cold (1–2% of a
	// 4,096-rank halo run when it did).
	steps bool
}

// payload is what an event acts on: the process it resumes (proc != nil) or
// the engine-context callback it fires (fire != nil).
type payload struct {
	proc *Proc
	fire func()
}

// Key spaces for slot.key. FIFO keys count up from zero; keyed wakes sort
// last within an instant.
const (
	keyedBase = uint64(1) << 63 // ScheduleWake keys
	keyedMask = keyedBase - 1   // caller key must fit below keyedBase
)

// EngineStats counts kernel activity for observability. All counters are
// host-side bookkeeping: reading or resetting them never affects virtual
// time.
type EngineStats struct {
	Events       uint64 // events popped from the queue
	FastAdvances uint64 // Advances that bumped the clock with no queue traffic
	Handoffs     uint64 // resumes popped for a process other than the one dispatching
	Callbacks    uint64 // engine-context callbacks fired
	Spawns       uint64 // processes created
}

// sleepLanes is the size of the engine's table of sleep lanes: how many
// distinct (length, kind) pairs may have a lane at once. A sleep whose pair
// has no lane while every lane queues sleeps of another goes on the heap.
const sleepLanes = 16

// deepQueue is the heap depth from which an ordinary (not stepped) sleep
// joins a lane. Below it the heap's short sifts cost less than finding the
// lane and rescanning the lane heads on each pop: with every ordinary sleep
// on a lane, a 64-rank fork-join, whose heap never holds more than 64
// events, ran about 6% slower, and a 4,096-rank one, whose lanes then
// doubled in number, about 8% (EXPERIMENTS.md, "Lanes for every sleep").
const deepQueue = 256

// lane is a FIFO of queued resumes whose head is its earliest entry. A
// sleep lane holds the resumes that end sleeps of one length d and one kind
// — stepped (steps) or not — and the wake run the keyed wakes that each
// sorted after the one before (see the package comment for why both are
// sorted by construction). popLane marks the slot it pops with what the
// lane holds, so an ordinary resume never makes dispatch look at its cold
// Proc.
//
// A lane's entries fill a chain of blocks from head.rs[hi] to tail.rs[ti-1]; a
// block the head leaves goes to the engine's spare list, which every lane
// draws on, so the lanes hold about as many blocks as entries are queued —
// not each lane its own high-water mark.
type lane struct {
	d          Time
	steps      bool // the sleeps are stepped: slot.steps of every resume
	head, tail *laneBlock
	hi, ti     int
	n          int // entries queued
}

// laneBlockLen sizes a laneBlock to fill the allocator's 4 KiB size class.
const laneBlockLen = 170

// laneBlock is a run of lane entries, chained to the next through next.
type laneBlock struct {
	rs   [laneBlockLen]laneResume
	next *laneBlock
}

// laneResume is a lane entry: the resume of proc.
type laneResume struct {
	at   Time
	key  uint64
	proc *Proc
}

// before reports whether r sorts before the event (at, key).
func (r *laneResume) before(at Time, key uint64) bool {
	return r.at < at || r.at == at && r.key < key
}

// top returns l's head, its earliest entry; l must not be empty.
func (l *lane) top() *laneResume { return &l.head.rs[l.hi] }

// last returns l's tail, its latest entry; l must not be empty.
func (l *lane) last() *laneResume { return &l.tail.rs[l.ti-1] }

// headBefore reports whether l's head sorts before m's, or m is nil; l must
// not be empty.
func (l *lane) headBefore(m *lane) bool {
	return m == nil || l.top().before(m.top().at, m.top().key)
}

// Engine is a discrete-event simulation engine; create one with NewEngine.
type Engine struct {
	now   Time
	queue []slot // 4-ary min-heap ordered by (at, key)
	first *lane  // the non-empty lane or wake run with the earliest head; nil if none
	// slab holds the queued events' payloads, indexed by slot.ev. It is as
	// long as the queue has ever been, so its free entries are as many as the
	// elements of queue's backing array past its length, and those elements
	// keep their indices: a pop parks the index it frees in the slot it
	// vacates, a push takes the index parked in the slot it is about to fill.
	slab    []payload
	seq     uint64
	live    procList
	current *Proc
	pool    carrierPool // idle carriers
	stats   EngineStats

	// liveNow/liveEvents are low-frequency snapshots of the clock and the
	// dispatched-event count, published for host-side progress reporting
	// (LiveTime/LiveEvents). They are written by whichever process or driver
	// is dispatching, every few thousand pops, so reading them from a
	// heartbeat goroutine is race-free, cheap, and never perturbs the
	// simulation.
	liveNow    atomic.Int64
	liveEvents atomic.Uint64

	// lanes[:nlanes] have been bound to a sleep length and kind; wakes is the
	// wake run; spare holds the blocks no lane does, linked through next.
	// Last, so that the fields an ordinary event touches share their cache
	// lines as they did before.
	lanes  [sleepLanes]lane
	nlanes int32
	nobank bool // Charge is Advance (NoBank; tests only)
	wakes  lane
	spare  *laneBlock

	// bank is the sleeps the running process has charged and not yet taken
	// (Proc.Charge), at their scale. Last too, and in the 1,152-byte size
	// class the Engine had without it: at thousands of ranks a change of
	// the Engine's size class alone moves host time by several percent
	// (PITFALLS.md, "layout moves host time").
	bank Time
}

// liveEvery sets how many event pops elapse between live-snapshot
// publications (a power of two; the check is a mask on a counter the pop
// path maintains anyway).
const liveEvery = 4096

// LiveTime returns a recent snapshot of the virtual clock. Unlike Now it
// may be called from any host goroutine while the engine runs; the value
// trails the true clock by at most one publication interval.
func (e *Engine) LiveTime() Time { return e.liveNow.Load() }

// LiveEvents returns a recent snapshot of the total events dispatched,
// with the same concurrency contract as LiveTime.
func (e *Engine) LiveEvents() uint64 { return e.liveEvents.Load() }

// publishLive refreshes the live snapshots.
func (e *Engine) publishLive() {
	e.liveNow.Store(e.now)
	e.liveEvents.Store(e.stats.Events)
}

// procList is an intrusive doubly-linked list of live processes, threaded
// through Proc.livePrev/liveNext. It replaces the engine's former
// map[*Proc]struct{} live/parked sets: at 16K+ processes the map buckets
// dominated kernel setup memory, while the intrusive links cost two words
// inside the Proc itself, insert and exit are O(1), and the parked state
// reads straight off the Proc flag the kernel maintains anyway. The list
// is only ever walked for deadlock diagnostics.
type procList struct {
	head *Proc
	n    int
}

func (l *procList) add(p *Proc) {
	p.liveNext = l.head
	if l.head != nil {
		l.head.livePrev = p
	}
	l.head = p
	l.n++
}

func (l *procList) remove(p *Proc) {
	if p.livePrev != nil {
		p.livePrev.liveNext = p.liveNext
	} else {
		l.head = p.liveNext
	}
	if p.liveNext != nil {
		p.liveNext.livePrev = p.livePrev
	}
	p.livePrev, p.liveNext = nil, nil
	l.n--
}

// names returns "name(state)" diagnostics for every live process, for
// deadlock reports.
func (l *procList) names() []string {
	var out []string
	for p := l.head; p != nil; p = p.liveNext {
		state := "running"
		if p.parked {
			state = "parked"
		}
		out = append(out, p.Name+"("+state+")")
	}
	return out
}

// NewEngine returns a new engine with the clock at zero and no pending
// events.
func NewEngine() *Engine {
	return new(Engine)
}

// Now returns the current virtual time: in process context, the running
// process's, its banked charges included.
func (e *Engine) Now() Time { return e.now + e.bank }

// NoBank makes Proc.Charge an Advance on this engine: the unbanked
// reference that tests hold a banked run to. The runtime never sets it.
func (e *Engine) NoBank() { e.nobank = true }

// sync has the running process take its bank, if it holds one, before a
// kernel entry that other processes can observe.
func (e *Engine) sync() {
	if e.bank != 0 {
		e.current.takeBank()
	}
}

// Stats returns the cumulative kernel counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// slotLess orders the heap by deadline, then by tie-break key (FIFO
// within an instant for engine- and process-scheduled events).
func slotLess(a, b *slot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
}

// push queues the event s with payload pl (s.ev is set here), sifting a hole
// up from the end of the heap to where s belongs.
func (e *Engine) push(s slot, pl payload) {
	q := e.queue
	n := len(q)
	if n < len(e.slab) {
		s.ev = q[:n+1][n].ev // parked there by a pop
		e.slab[s.ev] = pl
	} else {
		s.ev = int32(len(e.slab))
		e.slab = append(e.slab, pl)
	}
	q = append(q, s)
	i := n
	for i > 0 {
		p := (i - 1) / 4
		if !slotLess(&s, &q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = s
	e.queue = q
}

// lane returns the sleep lane for sleeps of length d and kind steps: the one
// bound to them, else an unused one or, once all are used, an empty one,
// bound to them — or nil if every lane is bound to another pair and queues
// something. A lane only ever holds sleeps of its one length, so it stays
// sorted; rebinding empty lanes keeps a burst of lengths that passes (ranks
// starting at staggered times) from holding the table for good.
func (e *Engine) lane(d Time, steps bool) *lane {
	for i := range e.lanes[:e.nlanes] {
		if e.lanes[i].d == d && e.lanes[i].steps == steps {
			return &e.lanes[i]
		}
	}
	var l *lane
	if e.nlanes < sleepLanes {
		l = &e.lanes[e.nlanes]
		e.nlanes++
	} else {
		for i := range e.lanes {
			if e.lanes[i].n == 0 {
				l = &e.lanes[i]
				break
			}
		}
		if l == nil {
			return nil
		}
	}
	l.d, l.steps = d, steps
	return l
}

// pushLane queues r at the tail of l, chaining a block on when the tail
// block is full.
func (e *Engine) pushLane(l *lane, r laneResume) {
	if l.tail == nil || l.ti == laneBlockLen {
		b := e.spare
		if b != nil {
			e.spare, b.next = b.next, nil
		} else {
			b = new(laneBlock)
		}
		if l.tail == nil {
			l.head, l.hi = b, 0
		} else {
			l.tail.next = b
		}
		l.tail, l.ti = b, 0
	}
	l.tail.rs[l.ti] = r
	l.ti++
	l.n++
	if l.n == 1 && l.headBefore(e.first) {
		e.first = l
	}
}

// popLane removes the head of the lane first, clearing its entry, and finds
// the lane that is first next.
func (e *Engine) popLane() (slot, payload) {
	l := e.first
	r := l.top()
	s, pl := slot{at: r.at, key: r.key, wake: l == &e.wakes, steps: l.steps}, payload{proc: r.proc}
	r.proc = nil
	l.hi++
	l.n--
	if l.n == 0 {
		l.hi, l.ti = 0, 0 // an empty lane keeps its one block
	} else if l.hi == laneBlockLen {
		b := l.head
		l.head, l.hi = b.next, 0
		b.next, e.spare = e.spare, b
	}
	e.first = nil
	if e.wakes.n > 0 {
		e.first = &e.wakes
	}
	for i := range e.lanes[:e.nlanes] {
		if m := &e.lanes[i]; m.n > 0 && m.headBefore(e.first) {
			e.first = m
		}
	}
	return s, pl
}

// pop removes the earliest event from the queue and returns it with its
// payload: the earliest lane head's when it sorts before the heap's top,
// else the top's. The heap's last slot fills the hole the root leaves,
// sifted down to where it belongs; the payload's slab entry is cleared — no
// process or closure outlives its event there — and freed.
func (e *Engine) pop() (slot, payload) {
	e.stats.Events++
	if e.stats.Events&(liveEvery-1) == 0 {
		e.publishLive()
	}
	q := e.queue
	if l := e.first; l != nil && (len(q) == 0 || l.top().before(q[0].at, q[0].key)) {
		return e.popLane()
	}
	top := q[0]
	n := len(q) - 1
	last := q[n]
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m, end := c, min(c+4, n)
		for c++; c < end; c++ {
			if slotLess(&q[c], &q[m]) {
				m = c
			}
		}
		if !slotLess(&q[m], &last) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = last
	q[n] = slot{ev: top.ev} // the freed index, parked past the heap's end
	e.queue = q[:n]
	pl := e.slab[top.ev]
	e.slab[top.ev] = payload{}
	return top, pl
}

// At schedules fn to run in engine context at time t. fn must not block;
// it runs between process executions. Scheduling in the past is an error.
func (e *Engine) At(t Time, fn func()) {
	e.sync()
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.seq++
	e.push(slot{at: t, key: e.seq}, payload{fire: fn})
}

// After schedules fn to run in engine context after duration d.
func (e *Engine) After(d Time, fn func()) { e.At(e.Now()+d, fn) }

// scheduleResume queues a resume of p at time t.
func (e *Engine) scheduleResume(p *Proc, t Time) {
	e.seq++
	e.push(slot{at: t, key: e.seq, steps: p.step != nil}, payload{proc: p})
}

// sleep queues the resume of p that ends a sleep of d: in the lane for d and
// p's kind of sleep when there is one and p is in AdvanceFunc (not replaying
// a bank) or the heap is deep, on the heap otherwise.
func (e *Engine) sleep(p *Proc, d Time) {
	if steps := p.step != nil; steps && !p.replays || len(e.queue) >= deepQueue {
		if l := e.lane(d, steps); l != nil {
			e.seq++
			e.pushLane(l, laneResume{at: e.now + d, key: e.seq, proc: p})
			return
		}
	}
	e.scheduleResume(p, e.now+d)
}

// Spawn creates a new simulated process that will begin executing fn at the
// current virtual time (after already-queued events for this instant).
// The name is used in diagnostics only.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	e.sync()
	p := &Proc{Name: name, eng: e, body: fn}
	e.stats.Spawns++
	e.live.add(p)
	e.scheduleResume(p, e.now)
	return p
}

// exit retires the process, whose body has returned: it dispatches on,
// parks the carrier in the pool and returns the process the carrier's yield
// should name.
func (p *Proc) exit() *Proc {
	p.eng.sync()
	p.dead = true
	p.eng.live.remove(p)
	q := p.eng.dispatch(nil)
	p.release()
	return q
}

// yield gives up the virtual CPU until p's next resume is popped — the
// caller has queued it, or left it to a Wake. p dispatches inline first and
// switches out only when that hands to a different process or to none.
func (p *Proc) yield() {
	if q := p.eng.dispatch(p); q != p {
		p.car.yield(q)
	}
}

// dispatch runs the event loop in the calling context: it pops events and
// fires engine-context callbacks — and the steps of processes sleeping in
// AdvanceFunc — inline until it pops a resume that a process has to be
// switched in for, and returns that process for the caller to switch to — self itself when the
// resume is the caller's own, which then simply keeps running. It returns
// nil when the queue has drained (deadlock detection happens in Run).
//
// self is nil in the driver and at process exit.
func (e *Engine) dispatch(self *Proc) *Proc {
	for {
		if len(e.queue) == 0 && e.first == nil {
			e.current = nil
			return nil
		}
		s, pl := e.pop()
		e.now = s.at
		if pl.proc == nil {
			e.current = nil
			e.stats.Callbacks++
			pl.fire()
			continue
		}
		if s.wake && !pl.proc.wakeNow() {
			continue
		}
		e.current = pl.proc
		if s.steps && !e.runSteps(pl.proc) {
			continue
		}
		if pl.proc != self {
			e.stats.Handoffs++
		}
		return pl.proc
	}
}

// runSteps runs, on the dispatcher's stack, the step of p, whose sleep has
// just ended (AdvanceFunc), and the steps after it for as long as the sleep
// between two takes Advance's zero-handoff fast path. It reports whether
// the last step has run: p is then resumed in this same event. Otherwise
// p's next resume is queued and dispatch carries on. Every clock bump and
// FIFO key is taken exactly where p, switched in, would have taken it.
func (e *Engine) runSteps(p *Proc) bool {
	for {
		d, done := p.nextStep()
		if done {
			p.step = nil
			return true
		}
		if d = p.scaled(d); !e.fastAdvance(d) {
			e.sleep(p, d)
			return false
		}
	}
}

// fastAdvance takes the zero-handoff fast path of a sleep of d when it
// may — d is positive and no queued event fires
// at or before now+d, so whoever sleeps would be resumed next in any case —
// and reports whether it did.
func (e *Engine) fastAdvance(d Time) bool {
	t := e.now + d
	if d > 0 && (len(e.queue) == 0 || e.queue[0].at > t) && (e.first == nil || e.first.top().at > t) {
		e.now += d
		e.stats.FastAdvances++
		return true
	}
	return false
}

// drive is the trampoline: it dispatches to the first process, then switches
// into whichever process the last one handed to, until one hands to none —
// its dispatch found nothing more to run, and neither would the driver's.
func (e *Engine) drive() {
	for p := e.dispatch(nil); p != nil; {
		p = p.resume()
	}
}

// Current returns the process currently executing (nil between events).
// Useful for layers that need to know on whose behalf a call is running.
func (e *Engine) Current() *Proc { return e.current }

// DeadlockError is returned by Run when the event queue drains while
// processes are still parked with no pending wakeup.
type DeadlockError struct {
	// Parked lists the names of the stuck processes.
	Parked []string
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock: %d process(es) parked with no pending events: %v", len(d.Parked), d.Parked)
}

// Run executes events until the queue is empty. It returns a *DeadlockError
// if any process is still alive (parked forever) when the queue drains, and
// nil otherwise.
func (e *Engine) Run() error {
	defer e.pool.stopAll()
	e.drive()
	if e.live.n > 0 {
		names := e.live.names()
		sort.Strings(names)
		return &DeadlockError{Parked: names}
	}
	return nil
}

// Proc is a simulated process. Its methods must only be called from the
// process body (with the exception of Wake, which may be called from any
// process or engine-context callback). A method that may block — Advance,
// Charge, Park, AdvanceFunc — panics when p is not Engine.Current: a handle
// kept by another process must not charge time to p.
type Proc struct {
	// Name identifies the process in diagnostics.
	Name string

	eng *Engine
	car *carrier // nil until the first resume and after the body returns

	// step is the function AdvanceFunc is running between p's sleeps, nil
	// outside AdvanceFunc. A dispatcher that pops a resume of p marked
	// slot.steps runs it in p's stead; while it is set p must not block.
	step func() (next Time, done bool)

	body   func(*Proc)
	dead   bool
	parked bool
	// replays marks a step that is Sync replaying a bank (nextStep hands
	// out its sleeps, which choose a lane as Advance's do, not as
	// AdvanceFunc's); more marks a bank of more than its head.
	replays, more bool
	permits       int32 // with the four flags, one word: a Proc stays in the 96-byte size class

	// livePrev/liveNext thread the engine's intrusive list of live
	// processes; see procList.
	livePrev, liveNext *Proc

	// scaleNum/scaleDen stretch Advance durations (straggler modelling);
	// scaleNum == 0 means nominal speed.
	scaleNum, scaleDen int64

	// head is the first sleep of p's bank, unscaled; the rest are on its
	// carrier, so a bank of one never touches the carrier's list.
	head Time
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time, the sleeps p has banked with Charge
// included.
func (p *Proc) Now() Time { return p.eng.now + p.eng.bank }

// Advance blocks the process for d nanoseconds of virtual time, modelling
// local computation or fixed-cost operations. Advance(0) yields without
// advancing the clock, letting same-instant events interleave
// deterministically.
//
// When no queued event fires at or before now+d, Advance takes the
// zero-handoff fast path: the process would be resumed next in any case, so
// the clock is bumped directly and control never leaves the process. An
// event scheduled at exactly now+d forces the slow path — it carries an
// earlier sequence number than the resume this Advance would enqueue, so
// FIFO tie-breaking says it must run first. Advance(0) always takes the
// slow path: its purpose is to interleave same-instant events.
//
// With sleeps banked by Charge, Advance adds d to them and takes the lot
// (Sync).
func (p *Proc) Advance(d Time) {
	p.MustRun("Advance")
	if p.eng.bank != 0 {
		l := p.car.charges()
		l.d = append(l.d, nonNegative(d))
		p.more = true
		p.takeBank()
		return
	}
	p.advance(d)
}

// Charge is Advance(d) for a process that has nothing to say to anyone
// before its next kernel entry: it banks the sleep instead of taking it
// (see "Banked charges" in the package comment), and Now counts it from
// here on. Every other kernel entry takes the bank first — Advance,
// AdvanceFunc, Park, Wake, ScheduleWake, At, After, Spawn, process exit —
// and the process must Sync before it reads or writes anything another
// process may. A charge of zero, which exists to let same-instant events
// interleave, is an Advance.
func (p *Proc) Charge(d Time) {
	p.MustRun("Charge")
	e := p.eng
	if s := p.scaled(d); s > 0 && !e.nobank {
		if e.bank == 0 {
			p.head = d
		} else {
			l := p.car.charges()
			l.d = append(l.d, d)
			p.more = true
		}
		e.bank += s
		return
	}
	p.Advance(d)
}

// Sync takes the sleeps p has banked with Charge: when Sync returns, p
// stands at the instant Now read before it, and every event those sleeps
// interleave with has run, exactly as if each Charge had been an Advance.
// The sleeps are replayed as one AdvanceFunc, so p is switched out and in
// at most once. Without a bank Sync does nothing.
func (p *Proc) Sync() {
	if p.eng.bank != 0 {
		p.MustRun("Sync")
		p.takeBank()
	}
}

// takeBank replays the running process p's bank; the bank must not be empty.
// A bank of one sleep is that sleep's Advance, and leaves the carrier's
// list, a cold line at thousands of ranks, alone.
func (p *Proc) takeBank() {
	p.eng.bank = 0
	if !p.more {
		p.advance(p.head)
		return
	}
	p.more = false
	p.step, p.replays = replaying, true
	p.stepLoop(p.head)
}

// replaying marks, as p.step, a process whose steps replay its bank.
func replaying() (Time, bool) { panic("sim: a bank's replay called as a step") }

// nextStep runs p's step: the step AdvanceFunc was given or, while p
// replays its bank, the next banked sleep, done once every one has been
// slept.
func (p *Proc) nextStep() (Time, bool) {
	if !p.replays {
		return p.step()
	}
	l := p.car.bank
	if l.taken == len(l.d) {
		l.d, l.taken = l.d[:0], 0
		p.replays = false
		return 0, true
	}
	d := l.d[l.taken]
	l.taken++
	return d, false
}

// MustRun panics, naming both processes, unless p may make the blocking
// call call: p is the running process, and not in an AdvanceFunc step. The
// kernel's blocking calls check it, and so may a layer above whose call
// acts as p.
func (p *Proc) MustRun(call string) {
	if p.step != nil {
		blockedInStep(call)
	}
	if cur := p.eng.current; cur != p {
		running := "no process"
		if cur != nil {
			running = fmt.Sprintf("process %q", cur.Name)
		}
		panic(fmt.Sprintf("sim: %s on process %q while %s runs; a handle of one process was used from another", call, p.Name, running))
	}
}

// advance is Advance without the check that p is not in a step: what
// AdvanceFunc itself sleeps with.
func (p *Proc) advance(d Time) {
	d = p.scaled(d)
	e := p.eng
	if e.fastAdvance(d) {
		return
	}
	e.sleep(p, d)
	p.yield()
}

// nonNegative panics on a negative sleep and returns d.
func nonNegative(d Time) Time {
	if d < 0 {
		panic("sim: negative Advance")
	}
	return d
}

// scaled checks a duration p is about to sleep for and stretches it by p's
// time scale.
func (p *Proc) scaled(d Time) Time {
	if nonNegative(d); p.scaleNum > 0 {
		d = d * p.scaleNum / p.scaleDen
	}
	return d
}

// blockedInStep panics for a blocking call made while the process is inside
// AdvanceFunc — from a step, that is.
func blockedInStep(call string) {
	panic("sim: " + call + " called from an AdvanceFunc step; a step runs in engine context and must not block")
}

// AdvanceFunc means exactly
//
//	for {
//		p.Advance(d)
//		if d, done = step(); done {
//			return
//		}
//	}
//
// but a step whose sleep went through the event queue runs in engine
// context (see the package comment for what it may call there and whose
// stack its panic unwinds): on the stack of whatever popped the resume, with
// Engine.Current set to p, and p itself is switched in only once a step
// reports done — in that same event. Every event, its time and its FIFO
// key, the time scale applied to each d and every EngineStats count but
// Handoffs are those of the loop above; what goes is the two coroutine
// switches per iteration and the cold stack they touch.
//
// A step must not block: Advance, Park or AdvanceFunc on p panics, naming
// the call. A step whose sleep took the fast path runs on p's own stack, so
// a step must not care which stack it is on. Build the step once per
// process: a closure made per call allocates per call.
//
// A bank p holds is taken first.
func (p *Proc) AdvanceFunc(d Time, step func() (next Time, done bool)) {
	p.MustRun("AdvanceFunc")
	p.eng.sync()
	p.step = step
	p.stepLoop(d)
}

// stepLoop is AdvanceFunc once p.step is set.
func (p *Proc) stepLoop(d Time) {
	for {
		p.advance(d)
		if p.step == nil {
			return // a dispatcher ran the steps that were left
		}
		// The sleep took the fast path: p runs this step itself.
		var done bool
		if d, done = p.nextStep(); done {
			p.step = nil
			return
		}
	}
}

// SetTimeScale stretches every subsequent Advance duration by num/den,
// modelling a process whose core runs slower than nominal (a straggler:
// 10/1 means ten times slower). SetTimeScale(0, 0) — or any num <= 0 —
// restores nominal speed. The scale applies at Advance time only; it never
// reinterprets durations already slept. Unlike most Proc methods it touches
// only this process's fields, so another process may call it too. Called
// by a process on itself, it takes the process's bank first; called on a
// process that is replaying a bank it panics, because the bank was summed
// at the old scale and Now has already read it.
func (p *Proc) SetTimeScale(num, den int64) {
	if num > 0 && den <= 0 {
		panic("sim: SetTimeScale with non-positive denominator")
	}
	if p.replays {
		panic(fmt.Sprintf("sim: SetTimeScale on process %q while it replays its bank", p.Name))
	}
	if p == p.eng.current {
		p.eng.sync()
	}
	p.scaleNum, p.scaleDen = num, den
}

// Park suspends the process until another process (or engine callback)
// calls Wake. If Wake was already called since the last Park, the permit is
// consumed and Park returns immediately without yielding the clock.
func (p *Proc) Park() {
	p.MustRun("Park")
	p.eng.sync()
	if p.permits > 0 {
		p.permits--
		return
	}
	p.parked = true
	p.yield()
}

// wakeNow is Wake for the dispatcher that has popped p's keyed wake: it
// reports whether p was parked — p then runs in this event, no resume is
// queued — and grants the permit otherwise. A process sleeping in
// AdvanceFunc is never parked, so a wake that resumes has no step to run.
func (p *Proc) wakeNow() bool {
	if !p.parked {
		p.permits++
		return false
	}
	p.parked = false
	return true
}

// Wake unparks p at the current virtual time. If p is not parked, a permit
// is stored and the next Park returns immediately. Each Wake grants exactly
// one Park.
func (p *Proc) Wake() {
	p.eng.sync()
	if p.wakeNow() {
		p.eng.scheduleResume(p, p.eng.now)
	}
}

// ScheduleWake schedules a Wake of q at time t, with an explicit
// caller-chosen tie-break key (unique per instant among keyed events; e.g.
// the target's rank number). Keyed wakes fire after all FIFO-scheduled
// events of the same instant, in key order: the order is a property of the
// workload, not of who scheduled first. The event queued is q's resume
// itself: a q parked at t runs in it, a q not parked is granted the permit
// (see the slot type). It joins the wake run when it sorts after the run's
// last entry, as every wake of a barrier's release does, and the heap
// otherwise.
func (p *Proc) ScheduleWake(q *Proc, t Time, key uint64) {
	if key&^keyedMask != 0 {
		panic("sim: ScheduleWake key out of range")
	}
	e := p.eng
	e.sync()
	if t < e.now {
		panic(fmt.Sprintf("sim: wake at %d before now %d", t, e.now))
	}
	key |= keyedBase
	if w := &e.wakes; w.n == 0 || w.last().before(t, key) {
		e.pushLane(w, laneResume{at: t, key: key, proc: q})
		return
	}
	e.push(slot{at: t, key: key, wake: true}, payload{proc: q})
}

// Splitmix is the splitmix64 step: the golden-gamma increment, then the
// finalizer. It is the one mixer behind every seeded draw of the runtime
// (steal victims, replica selection, fault decisions); each caller keeps
// its own seed and counters, so no stream correlates with another.
func Splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Parallel host execution: a conservatively synchronized sharded engine.
//
// # Model
//
// NewEngineShards partitions processes across S shards, each with its own
// event queue, clock, carrier pool and host worker goroutine. Execution
// alternates between two phases:
//
//   - Global phase: the classic serial kernel. One queue, one clock, one
//     trampoline (Engine.drive, on the goroutine that called Run). Used
//     whenever any process holds a global pin (PinGlobal), i.e. during
//     phases whose cross-rank interactions are finer-grained than the
//     lookahead (the fork-join scheduler's steal protocol pokes victim
//     deques directly).
//   - Parallel rounds: each shard's worker is the trampoline of its own
//     queue (shard.drain) and drains it to quiescence — a dynamically
//     sized conservative window that ends when every process on the shard
//     has parked, blocked, or exited. Shards share no mutable state during
//     a round; cross-shard communication is deferred into per-shard-pair
//     mailboxes and merged at the round boundary in (time, key) order, each
//     destination shard folding its own mail in on its own worker so
//     merges parallelize too. The coordinator signals only shards that
//     actually have queued events (or mail), so per-round host
//     synchronization scales with active shards, not configured shards.
//
// # Why round-boundary merges are safe (lookahead)
//
// Cross-shard events are only created by Proc.ScheduleWake, whose contract
// requires the wake time to lie at least `lookahead` — the network model's
// minimum link latency — after the sender's clock, and the target process
// to be quiescent (parked) from before the sender observed it until the
// wake time. Under those conditions the destination shard's clock cannot
// pass the wake time before the merge delivers it: the barrier release
// time max(arrivals) + ceil(log2 n)·latency exceeds every shard's
// quiesced clock, because each shard's clock is the maximum arrival time
// of its own ranks. Both directions are asserted: the send side checks
// t ≥ sender.now + lookahead for cross-shard wakes, and the merge panics
// if an event would land in its destination shard's past. A violation is
// therefore a loud bug, never a silent reordering.
//
// # Why digests are bit-identical to the serial engine
//
// Three mechanisms, none of which depend on host scheduling:
//
//  1. Location-independent tie-break keys. Within an instant, events sort
//     by a 64-bit key: FIFO counters (serial behaviour) < per-shard banded
//     counters < caller-chosen keyed wakes. Cross-shard merges therefore
//     land in an order fixed by (time, key) alone. A keyed wake is the
//     resume of its target (see the event type in sim.go): it crosses
//     shards as one event that routes by its process, and the dispatcher
//     that pops it — the global queue's or a shard's — resumes the target
//     in that event, which is the schedule Wake's second, banded-key
//     resume gave, since that one was always the next pop.
//  2. Quiescence-defined rounds. A round's contents are a function of the
//     queues at its start, so the round structure itself is deterministic;
//     host goroutines only decide *when* work happens, never *what order*
//     observable interactions commit in. Within a round, shards touch
//     disjoint simulation state (data-race-freedom across shards is the
//     layering contract: conflicting accesses are separated by barriers,
//     which span round boundaries).
//  3. Deterministic phase switches. Parallel→global transitions trigger at
//     round boundaries when a pin is held; global→parallel splits trigger
//     at event boundaries when no pin is held. Both conditions are
//     functions of simulated execution only.
//
// Host-side counters (EngineStats) are exempt: handoff and fast-advance
// counts describe how the host executed the schedule and legitimately
// differ across shard counts.
//
// # Carriers, panics and Goexit
//
// A process keeps its carrier across phases: a coroutine may be switched
// into from any goroutine, so the coordinator resumes in a global phase
// what a worker suspended in a round, and back. A carrier whose body
// returns goes to its process's shard's pool whichever phase it is in;
// Spawn is global-phase-only and a round's worker touches only its own
// shard, so the pools never race. A body's panic or runtime.Goexit
// surfaces in whichever trampoline switched into it. The coordinator's is
// already Run's caller; a worker hands what ended it to the coordinator in
// place of the round's completion signal, and the coordinator re-raises it
// there once every signalled shard has answered, retiring the other workers
// on its way out — it never waits on a dead worker.
package sim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// sharded holds the parallel-execution extension of an Engine.
type sharded struct {
	shards    []*shard
	lookahead Time
	pins      atomic.Int32 // processes requiring the global phase
	parallel  bool         // written by the coordinator between phases only
	started   bool
	rounds    uint64         // parallel rounds completed
	splits    uint64         // global→parallel transitions
	workers   sync.WaitGroup // live worker goroutines; Run waits for them

	// active is the coordinator's reusable scratch list of shards selected
	// for the current signal (non-empty queues for a round, non-empty
	// inboxes for a merge), so per-round coordination cost follows the
	// number of shards with actual work, not the shard count.
	active []*shard
}

// shard is one host worker's slice of the simulation: a private event
// queue, clock, and process set. During parallel rounds only the shard
// worker and the processes it switches into — one thread of control —
// touch a shard's state, so the serial kernel's no-locking argument holds
// per-shard.
type shard struct {
	id      int
	eng     *Engine
	now     Time
	queue   []event
	seq     uint64
	runCh   chan struct{} // coordinator → worker: run one round
	mergeCh chan struct{} // coordinator → worker: merge this shard's inbox
	doneCh  chan struct{} // worker → coordinator: round / merge finished, or worker dead
	current *Proc
	live    procList
	pool    carrierPool
	inbox   [][]event // mailbox per source shard, merged at round boundaries
	pending []event   // resumes for pin-parked processes, released at the global merge
	stats   EngineStats

	// dead and cause are written by a worker that a process body's panic
	// (cause: its value) or runtime.Goexit (cause: nil) is ending, before
	// its last doneCh send; the coordinator reads them after the receive.
	dead  bool
	cause any
}

// key returns the shard-banded tie-break key for the shard's seq-th event.
func (s *shard) key(seq uint64) uint64 {
	return uint64(s.id+1)<<keyShardShift | (seq & keyShardMask)
}

// NewEngineShards returns an engine whose processes are partitioned across
// nshards host workers, synchronized conservatively with the given
// lookahead (the minimum virtual latency of any cross-shard interaction;
// use the network model's MinLatency). NewEngineShards(1, ...) returns a
// plain serial engine, so callers can thread a -procs knob straight
// through. Run may be called at most once on a sharded engine.
func NewEngineShards(nshards int, lookahead Time) *Engine {
	if nshards < 1 {
		panic("sim: NewEngineShards requires at least one shard")
	}
	e := NewEngine()
	if nshards == 1 {
		return e
	}
	if lookahead <= 0 {
		panic("sim: sharded engine requires positive lookahead")
	}
	sh := &sharded{lookahead: lookahead}
	for i := 0; i < nshards; i++ {
		sh.shards = append(sh.shards, &shard{
			id:      i,
			eng:     e,
			runCh:   make(chan struct{}),
			mergeCh: make(chan struct{}),
			doneCh:  make(chan struct{}),
			inbox:   make([][]event, nshards),
		})
	}
	sh.active = make([]*shard, 0, nshards)
	e.sh = sh
	return e
}

// Shards returns the number of host shards (1 for a serial engine).
func (e *Engine) Shards() int {
	if e.sh == nil {
		return 1
	}
	return len(e.sh.shards)
}

// Lookahead returns the conservative synchronization bound (0 for a serial
// engine).
func (e *Engine) Lookahead() Time {
	if e.sh == nil {
		return 0
	}
	return e.sh.lookahead
}

// Shard returns the index of the shard this process is assigned to.
func (p *Proc) Shard() int {
	if p.shd == nil {
		return 0
	}
	return p.shd.id
}

// PinGlobal declares that this process needs globally serialized execution
// (e.g. it is entering a fork-join region whose steal protocol interacts
// with other ranks at sub-lookahead granularity). If a parallel round is in
// progress, the process yields and resumes — at its current virtual time —
// once the engine has switched to the global phase. Pins nest; they are
// released with UnpinGlobal. No-op on a serial engine.
func (p *Proc) PinGlobal() {
	e := p.eng
	if e.sh == nil {
		return
	}
	e.sh.pins.Add(1)
	if !e.sh.parallel {
		return
	}
	s := p.shd
	s.seq++
	s.pending = append(s.pending, event{at: s.now, key: s.key(s.seq), proc: p})
	p.yield()
}

// UnpinGlobal releases a PinGlobal. When the last pin is released the
// engine returns to parallel rounds at the next event boundary. No-op on a
// serial engine.
func (p *Proc) UnpinGlobal() {
	if p.eng.sh == nil {
		return
	}
	if p.eng.sh.pins.Add(-1) < 0 {
		panic("sim: UnpinGlobal without matching PinGlobal")
	}
}

// ScheduleWake schedules a Wake of q at time t, with an explicit
// caller-chosen tie-break key (unique per instant among keyed events; e.g.
// the target's rank number). Keyed wakes fire after all FIFO-scheduled
// events of the same instant, in key order, in every execution mode — the
// order is a property of the workload, not of which host worker scheduled
// first, which is what makes cross-shard wakeups deterministic. The event
// queued is q's resume itself: a q parked at t runs in it, a q not parked
// is granted the permit (see the event type in sim.go).
//
// During a parallel round a cross-shard wake must satisfy
// t ≥ caller.Now() + lookahead, and q must already be parked and stay
// parked until t (barrier waiters satisfy both by construction).
func (p *Proc) ScheduleWake(q *Proc, t Time, key uint64) {
	if key&^keyedMask != 0 {
		panic("sim: ScheduleWake key out of range")
	}
	e := p.eng
	ev := event{at: t, key: keyedBase | key, proc: q, wake: true}
	if e.sh == nil || !e.sh.parallel {
		if t < e.now {
			panic(fmt.Sprintf("sim: wake at %d before now %d", t, e.now))
		}
		e.push(ev)
		return
	}
	s := p.shd
	if q.shd == s {
		if t < s.now {
			panic(fmt.Sprintf("sim: wake at %d before shard clock %d", t, s.now))
		}
		s.queue = heapPush(s.queue, ev)
		return
	}
	if t < s.now+e.sh.lookahead {
		panic(fmt.Sprintf("sim: cross-shard wake at %d violates lookahead (shard %d clock %d + lookahead %d)",
			t, s.id, s.now, e.sh.lookahead))
	}
	q.shd.inbox[s.id] = append(q.shd.inbox[s.id], ev)
}

// runSharded is Run for sharded engines: it alternates global phases with
// parallel rounds until the simulation drains.
func (e *Engine) runSharded() error {
	sh := e.sh
	if sh.started {
		panic("sim: Run called twice on a sharded engine")
	}
	sh.started = true
	sh.workers.Add(len(sh.shards))
	for _, s := range sh.shards {
		go s.worker()
	}
	// Also on the way out of a re-raised panic or Goexit: retire the
	// workers, wait for them, and stop the carriers their shards pooled.
	defer func() {
		for _, s := range sh.shards {
			close(s.runCh)
		}
		sh.workers.Wait()
		for _, s := range sh.shards {
			s.pool.stopAll()
		}
	}()
	for {
		// Global phase: the serial kernel, until the simulation completes
		// or no pin holds the engine global and the pending events should
		// run in parallel rounds instead.
		if e.drive(); len(e.queue) == 0 {
			break
		}
		// Split: distribute the global queue across the shard queues. The
		// queue pops in (at, key) order and ordered inserts keep each heap
		// valid, so per-shard order is exactly the global order restricted
		// to that shard.
		for len(e.queue) > 0 {
			var ev event
			ev, e.queue = heapPop(e.queue)
			dst := sh.shards[ev.targetShard()]
			dst.queue = heapPush(dst.queue, ev)
		}
		sh.parallel = true
		sh.splits++
		for {
			// Only shards with queued events are signalled: an empty
			// shard's round is a no-op, so skipping its run/done
			// round-trip changes nothing observable while cutting
			// per-round host synchronization from O(shards) to O(active
			// shards) — the dominant cost for barrier-paced workloads
			// whose rounds touch a few shards at a time. Reading queue
			// lengths here is race-free: every worker is quiescent
			// between rounds (the doneCh handshake ordered its last
			// writes before this read).
			run := sh.active[:0]
			for _, s := range sh.shards {
				if len(s.queue) > 0 {
					run = append(run, s)
				}
			}
			for _, s := range run {
				s.runCh <- struct{}{}
			}
			await(run)
			sh.rounds++
			// Merge phase: each destination shard with mail folds its own
			// inboxes into its queue on its own worker, concurrently with
			// the other destinations. Shards without mail skip the
			// round-trip entirely; when nothing moved anywhere the window
			// is exhausted.
			merge := sh.active[:0]
			for _, s := range sh.shards {
				for _, box := range s.inbox {
					if len(box) > 0 {
						merge = append(merge, s)
						break
					}
				}
			}
			for _, s := range merge {
				s.mergeCh <- struct{}{}
			}
			await(merge)
			// Every worker is quiescent here (the doneCh handshakes above
			// ordered their last writes), so publishing the live progress
			// snapshot from the coordinator is race-free.
			e.publishLive()
			if sh.pins.Load() > 0 || len(merge) == 0 {
				break
			}
		}
		sh.parallel = false
		e.mergeToGlobal()
	}
	for _, s := range sh.shards {
		if s.now > e.now {
			e.now = s.now
		}
	}
	var names []string
	for _, s := range sh.shards {
		names = append(names, s.live.names()...)
	}
	if len(names) > 0 {
		sort.Strings(names)
		return &DeadlockError{Parked: names}
	}
	return nil
}

// targetShard returns the shard an event belongs to when the global queue
// is split.
func (ev *event) targetShard() int {
	if ev.proc != nil && ev.proc.shd != nil {
		return ev.proc.shd.id
	}
	return int(ev.shard)
}

// await collects the completion signal of every shard in ss, then
// re-raises on the calling goroutine — the coordinator, Run's caller —
// whatever ended a worker among them.
func await(ss []*shard) {
	for _, s := range ss {
		<-s.doneCh
	}
	for _, s := range ss {
		if s.dead {
			if s.cause != nil {
				panic(s.cause)
			}
			runtime.Goexit()
		}
	}
}

// mergeInbox delivers this shard's round-boundary mailboxes into its own
// queue, asserting conservativeness. It runs on the shard's worker during
// the merge phase, so the per-destination merges proceed concurrently;
// each worker touches only its own queue and clears only its own inboxes,
// and the coordinator's channel handshakes order every source shard's
// mailbox writes before this read.
func (s *shard) mergeInbox() {
	for src, box := range s.inbox {
		for _, ev := range box {
			if ev.at < s.now {
				panic(fmt.Sprintf("sim: conservative violation: event from shard %d at %d is in shard %d's past (clock %d, lookahead %d)",
					src, ev.at, s.id, s.now, s.eng.sh.lookahead))
			}
			s.queue = heapPush(s.queue, ev)
		}
		s.inbox[src] = s.inbox[src][:0]
	}
}

// mergeToGlobal folds every shard queue and pin-park resume into the
// global queue for a global phase. Heap order makes the result pop in
// (at, key) order regardless of shard iteration order.
func (e *Engine) mergeToGlobal() {
	for _, s := range e.sh.shards {
		for len(s.queue) > 0 {
			var ev event
			ev, s.queue = heapPop(s.queue)
			e.push(ev)
		}
		for _, ev := range s.pending {
			e.push(ev)
		}
		s.pending = s.pending[:0]
		s.current = nil
	}
}

// worker is a shard's host goroutine: it runs one quiescence round or one
// inbox merge per coordinator request. The coordinator never signals both
// channels at once, and closes runCh to retire the worker. A panic or
// Goexit that unwinds the worker — a process body's, re-raised in drain —
// is handed to the coordinator in place of the completion it is waiting
// for.
func (s *shard) worker() {
	defer s.eng.sh.workers.Done()
	retired := false
	defer func() {
		if !retired {
			s.dead, s.cause = true, recover()
			s.doneCh <- struct{}{}
		}
	}()
	for {
		select {
		case _, ok := <-s.runCh:
			if !ok {
				retired = true
				return
			}
			s.drain()
			s.doneCh <- struct{}{}
		case <-s.mergeCh:
			s.mergeInbox()
			s.doneCh <- struct{}{}
		}
	}
}

// drain runs the shard's queue to quiescence: the round ends when every
// process on the shard has parked, blocked on a future event, or exited.
// It is the parallel-round trampoline (see Engine.drive).
func (s *shard) drain() {
	for p := s.dispatch(nil); p != nil; {
		p = p.resume()
	}
}

// scheduleResume queues a resume of p on its shard at time t with a
// shard-banded key.
func (s *shard) scheduleResume(p *Proc, t Time) {
	s.seq++
	s.queue = heapPush(s.queue, event{at: t, key: s.key(s.seq), proc: p})
}

// dispatch is the shard-local dispatch loop, the parallel-round analogue
// of Engine.dispatch. It returns nil when the shard has quiesced; a process
// that yields on that resumes in a later round or global phase.
func (s *shard) dispatch(self *Proc) *Proc {
	for {
		if len(s.queue) == 0 {
			s.current = nil
			return nil
		}
		var ev event
		ev, s.queue = heapPop(s.queue)
		s.stats.Events++
		s.now = ev.at
		if ev.proc == nil {
			s.current = nil
			s.stats.Callbacks++
			ev.fire()
			continue
		}
		if ev.wake && !ev.proc.wakeNow() {
			continue
		}
		s.current = ev.proc
		if ev.proc != self {
			s.stats.Handoffs++
		}
		return ev.proc
	}
}

// advanceSharded is Proc.Advance for processes of a sharded engine, in
// both phases. The fast/slow path split is identical to the serial kernel,
// applied to whichever queue+clock currently governs the process.
func (p *Proc) advanceSharded(d Time) {
	e := p.eng
	if !e.sh.parallel {
		if e.fastAdvance(d) {
			return
		}
		e.scheduleResume(p, e.now+d)
		p.yield()
		return
	}
	s := p.shd
	if d > 0 && (len(s.queue) == 0 || s.queue[0].at > s.now+d) {
		s.now += d
		s.stats.FastAdvances++
		return
	}
	s.scheduleResume(p, s.now+d)
	p.yield()
}

// Package uth is the threading layer: user-level threads with child-first
// (work-first) work stealing across ranks, the simulated equivalent of the
// uni-address scheme's distributed continuation stealing (§2.1, §3.1).
//
// Each rank runs one worker. A Fork suspends the calling thread, makes its
// continuation stealable on the local deque, and runs the child
// immediately. If nobody steals the continuation, the child's completion
// resumes the parent with no coherence actions (the serialized fast path);
// if a thief takes it, the parent resumes on the thief's rank after the
// appropriate release/acquire fences (Fig. 5), which the memory layer
// supplies through the Hooks interface. Joins migrate the blocked parent to
// the completing child's rank.
//
// Host-level concurrency note: every thread is a sim.Proc — a body on a
// pooled coroutine that the engine switches into, one at a time, on one
// host thread — and a per-rank token, held by either the worker's scheduler
// process or the one thread currently executing on the rank, keeps per-rank
// execution serial in virtual time. An idle worker is not even switched
// into: between the moments it has something to run, its scheduling loop
// is a sim.Proc.AdvanceFunc step (Worker.idleStep) that the engine calls in
// its own context at the end of each of the worker's sleeps.
package uth

import (
	"fmt"
	"math/bits"

	"ityr/internal/pgas"
	"ityr/internal/rma"
	"ityr/internal/sim"
	"ityr/internal/trace"
)

// Hooks connects the scheduler to the memory consistency layer. The rank
// argument is always the rank on which the action occurs. The scheduler
// carries a fork's release handler to the thief without reading it.
type Hooks interface {
	// Poll runs deferred work (DoReleaseIfReqested of Fig. 6) — called at
	// every fork and join, and by an idle worker whenever PollPending says
	// there is some.
	Poll(rank int)
	// PollPending reports whether Poll(rank) would do anything. An idle
	// worker asks it once per idle-loop iteration from engine context
	// (sim.Proc.AdvanceFunc), so it must only read.
	PollPending(rank int) bool
	// OnFork performs Release #1 (lazily under the lazy policy) and
	// returns the handler the eventual thief must acquire against.
	OnFork(rank int) pgas.ReleaseHandler
	// OnSteal performs Acquire #2 on the thief with the victim's handler,
	// including the cache self-invalidation.
	OnSteal(thiefRank int, handler pgas.ReleaseHandler)
	// OnSuspend performs Release #3 before a thread blocks at a join (and
	// at region exit, to publish locally cached writes).
	OnSuspend(rank int)
	// OnChildStolenDone performs Release #2 when a child completes and
	// its parent's continuation was stolen.
	OnChildStolenDone(rank int)
	// OnMigrateArrive performs Acquire #1 when a thread resumes on a
	// different rank than the one where the writes it must observe were
	// released.
	OnMigrateArrive(rank int)
}

// NopHooks is a Hooks implementation that does nothing, for scheduler-only
// tests and memory-free workloads.
type NopHooks struct{}

// Poll does nothing.
func (NopHooks) Poll(int) {}

// PollPending reports that Poll never has anything to do.
func (NopHooks) PollPending(int) bool { return false }

// OnFork returns the handler that needs no write-back.
func (NopHooks) OnFork(int) pgas.ReleaseHandler { return pgas.Unneeded }

// OnSteal does nothing.
func (NopHooks) OnSteal(int, pgas.ReleaseHandler) {}

// OnSuspend does nothing.
func (NopHooks) OnSuspend(int) {}

// OnChildStolenDone does nothing.
func (NopHooks) OnChildStolenDone(int) {}

// OnMigrateArrive does nothing.
func (NopHooks) OnMigrateArrive(int) {}

// Config tunes the scheduler.
type Config struct {
	// Policy selects the scheduling discipline. The zero value is
	// ChildFirst — the paper's child-first (work-first) work stealing,
	// and the policy every golden digest is pinned against. See
	// SchedPolicy for HelpFirst and FBC.
	Policy SchedPolicy
	// LocalityAware makes thieves try same-node victims (cheap steals,
	// shared home memory) before stealing across nodes — a simple
	// hierarchical scheduler in the direction of the locality-aware
	// schedulers §8 of the paper names as future work. The default is the
	// paper's purely random victim selection.
	LocalityAware bool

	// VictimBlacklist enables steal-victim backoff: a victim whose
	// attempts repeatedly fail or exceed stealTimeout is skipped for a
	// penalty window (doubling per repeat up to blacklistMax, decaying on
	// a healthy probe), so a steal storm against a straggler does not
	// serialize the cluster. Off by default: clean runs keep the paper's
	// purely random victim selection, and the golden digest.
	VictimBlacklist bool
}

// Steal payloads and the victim blacklist's penalty bounds.
const (
	// StackBytes is the call-stack payload a steal moves (uni-address
	// stack transfer), and the one core's task replication ships to a
	// replica rank.
	StackBytes = 2048
	// taskBytes is the descriptor payload a thief moves when it steals a
	// pending (not-yet-started) task under HelpFirst and FBC. Child-first
	// steals always move live stacks.
	taskBytes = 256
	// stealTimeout is the attempt latency beyond which a victim earns a
	// strike even if the steal succeeded; blacklistAfter consecutive
	// strikes blacklist it.
	stealTimeout   = 20 * sim.Microsecond
	blacklistAfter = 3
	// blacklistBase and blacklistMax bound the doubling penalty window.
	blacklistBase = 50 * sim.Microsecond
	blacklistMax  = 2 * sim.Millisecond
)

// Local scheduling costs (virtual time).
const (
	costFork      = 120 * sim.Nanosecond // thread record + deque push
	costJoinFast  = 50 * sim.Nanosecond
	costSchedIter = 40 * sim.Nanosecond
	// Failed steals are paced mostly by the remote CAS itself (as in the
	// RDMA-based uni-address scheduler); the explicit backoff only damps
	// event volume when the whole machine is idle.
	backoffMin = 500 * sim.Nanosecond
	backoffMax = 10 * sim.Microsecond
)

// Stats aggregates scheduler events.
type Stats struct {
	Forks        uint64
	Steals       uint64
	IntraSteals  uint64 // steals whose victim shared the thief's node
	FailedSteals uint64
	Migrations   uint64 // resumes on a rank other than where the thread suspended

	StealTimeouts  uint64 // attempts slower than stealTimeout
	Blacklists     uint64 // victim blacklisting episodes
	BlacklistSkips uint64 // picks redirected away from a blacklisted victim
}

// Sched is the cluster-wide work-stealing scheduler.
type Sched struct {
	comm    *rma.Comm
	cfg     Config
	hooks   Hooks
	workers []*Worker
	done    bool

	// Stats holds cumulative scheduler statistics.
	Stats Stats

	// PolicyStats holds counters specific to the non-default scheduling
	// policies; always zero under ChildFirst (see PolicyStats).
	PolicyStats PolicyStats

	// rec is the run's recorder, taken from comm (nil = record nothing). It
	// is told the fork-join DAG — KTaskRun segments and KFork/KJoin/KTaskEnd
	// edges carrying thread IDs — and every steal, idle, blacklist and
	// replica span, once each; recording only reads the clock.
	rec     *trace.Recorder
	nextTID int64
}

// CurrentTID returns the trace DAG thread ID of the fork-join thread
// holding rank's token, or 0 when none does (SPMD mode or scheduler
// internals). The checkout-discipline validator uses it to name the task
// segment that owns a global-memory access.
func (s *Sched) CurrentTID(rank int) int64 {
	if th := s.workers[rank].holder; th != nil {
		return th.tid
	}
	return 0
}

// traceSeg closes the thread's currently open execution segment as a
// KTaskRun span and opens the next one.
func (s *Sched) traceSeg(th *thread, rank int, now sim.Time) {
	if d := now - th.segStart; d > 0 {
		s.rec.Span(rank, trace.KTaskRun, th.segStart, d, th.tid, 0)
	}
	th.segStart = now
}

// traceEnd records a thread's final segment and its KTaskEnd marker
// (Arg2 = parent thread ID, 0 for the root).
func (s *Sched) traceEnd(th *thread, rank int, now sim.Time) {
	s.traceSeg(th, rank, now)
	s.rec.Instant(rank, trace.KTaskEnd, now, th.tid, th.ptid)
}

// NewSched creates the scheduler over comm, reporting to comm's recorder;
// seed seeds the per-worker victim-selection streams.
func NewSched(comm *rma.Comm, cfg Config, seed int64, hooks Hooks) *Sched {
	if hooks == nil {
		hooks = NopHooks{}
	}
	s := &Sched{comm: comm, cfg: cfg, hooks: hooks, rec: comm.Recorder()}
	s.workers = make([]*Worker, comm.Size())
	stream := sim.Splitmix(uint64(seed) ^ 0x57EA1)
	for i := range s.workers {
		w := &Worker{sched: s, rank: comm.Rank(i), rng: stream + uint64(i) + 1}
		if cfg.VictimBlacklist {
			w.strikes = make([]int, comm.Size())
			w.blackUntil = make([]sim.Time, comm.Size())
			w.blackDur = make([]sim.Time, comm.Size())
		}
		s.workers[i] = w
	}
	return s
}

// Worker is one rank's scheduler state.
type Worker struct {
	sched *Sched
	rank  *rma.Rank
	proc  *sim.Proc // the rank's SPMD/scheduler process
	deque []*entry

	// holder is the thread holding the rank's token, nil while the
	// scheduler process holds it; handTo is its only writer.
	holder *thread

	// rng is the worker's victim stream: a splitmix64 counter, advanced and
	// mixed by draw.
	rng uint64

	// idle is what idleStep keeps between two sleeps of the idle loop, and
	// step is idleStep as a value, made once so that idling allocates
	// nothing.
	idle idleState
	step func() (sim.Time, bool)

	// runnable holds join waiters woken in place by FBC completion
	// notifications; always empty under the other policies.
	runnable []*thread

	// Victim-blacklist state (allocated only under Config.VictimBlacklist):
	// consecutive strikes, the time until which each victim is skipped,
	// and its current doubling penalty duration.
	strikes    []int
	blackUntil []sim.Time
	blackDur   []sim.Time
}

// entry is a stealable deque item: under ChildFirst a parent continuation
// parked at a fork point; under HelpFirst/FBC a pending child task whose
// body has not started yet (fn non-nil until it runs).
type entry struct {
	th      *thread
	handler pgas.ReleaseHandler // Release #1 handler for the eventual thief
	fn      func(*TB)           // pending task body; nil once started (and always under ChildFirst)
	taken   bool
}

// thread is a user-level thread. A fork makes one: the deque entry the fork
// pushes, the thread's TB and its join handle are parts of it, not objects
// of their own.
type thread struct {
	proc   *sim.Proc
	worker *Worker // rank the thread is (or will next be) running on
	parent *entry  // this thread's parent's continuation entry (nil for root)

	// ent is the entry the fork that made this thread pushed: the parent's
	// continuation under ChildFirst (parent points at it), this thread as
	// a pending task under HelpFirst and FBC. tb is the binding its body
	// runs with, and handle what Fork returns for Join.
	ent    entry
	tb     TB
	handle Thread

	fenceOnResume bool // run Acquire #1 when the thread next resumes

	done       bool
	doneRank   int
	joinWaiter *thread
	waiterRank int

	// tid is the thread's stable ID in the trace DAG (root = 1), ptid its
	// parent's (0 for the root); segStart is where the currently open
	// KTaskRun segment began.
	tid      int64
	ptid     int64
	segStart sim.Time
}

// TB is the thread binding passed to every thread body: the interface
// through which running code forks, joins and observes its current rank.
// A TB is only valid on the goroutine of the thread it was created for.
type TB struct {
	w  *Worker
	th *thread
}

// RankID returns the rank currently executing the thread. It may change
// across Fork and Join calls (thread migration).
func (tb *TB) RankID() int { return tb.w.rank.ID() }

// Proc returns the thread's simulated process, for charging compute time.
func (tb *TB) Proc() *sim.Proc { return tb.th.proc }

// Sched returns the scheduler.
func (tb *TB) Sched() *Sched { return tb.w.sched }

// Thread is an opaque handle to a forked child, used to join it.
type Thread struct{ th *thread }

// Done reports whether the child has completed.
func (t *Thread) Done() bool { return t.th.done }

// WorkerMain enters a fork-join region: rank 0 spawns the root thread
// running body; all ranks participate in work stealing until the root
// completes. It must be called from every rank's SPMD process with the same
// body, and returns on every rank when the region ends, with all global
// memory writes from the region visible everywhere (a release on every
// rank, a barrier, then an acquire on every rank). Multiple regions may run
// in sequence.
func (s *Sched) WorkerMain(rankID int, body func(*TB)) {
	w := s.workers[rankID]
	w.proc = w.rank.Proc()
	w.rank.Barrier()
	s.done = false
	w.rank.Barrier()
	if rankID == 0 {
		s.nextTID++
		root := &thread{worker: w, tid: s.nextTID}
		w.proc.Engine().Spawn("root", func(p *sim.Proc) {
			root.proc = p
			w.handTo(root)
			root.segStart = p.Now()
			root.tb = TB{w: w, th: root}
			tb := &root.tb
			body(tb)
			// Publish the root's final writes, end the region, and hand
			// the token of whatever rank the root ended on back to its
			// scheduler.
			cur := tb.w
			s.traceEnd(root, cur.rank.ID(), p.Now())
			s.hooks.OnSuspend(cur.rank.ID())
			p.Sync() // idle workers read done
			s.done = true
			cur.handTo(nil).Wake()
		})
		w.proc.Park() // until a thread hands rank 0's token back
		w.handTo(nil)
	}
	w.schedLoop()
	// Region exit: flush local caches so the SPMD code (and the next
	// region) sees a consistent global view.
	s.hooks.OnSuspend(rankID)
	w.rank.Barrier()
	s.hooks.OnMigrateArrive(rankID)
	w.rank.Barrier()
}

// idlePhase names the sleep an idle worker is in.
type idlePhase uint8

const (
	idleTick    idlePhase = iota // the scheduling tick that opens an iteration
	idleCAS                      // the steal's remote CAS: fault-retry waits, then the round trip
	idleBackoff                  // the backoff after a steal that found nothing
)

// idleState is what the idle loop carries from one sleep to the next.
type idleState struct {
	phase   idlePhase
	backoff sim.Time
	t0      sim.Time         // start of the steal attempt (idleCAS) or of the backoff sleep
	victim  int              // the rank the steal in progress targets
	cas     rma.AtomicCharge // its CAS, between two of its sleeps
}

// schedLoop runs scheduling until the region ends: resume local
// continuations, else steal. Only what needs a stack runs here, on the
// worker's process — resuming a thread, starting a pending task, finishing
// a steal whose CAS found something, a lazy-release Poll that has work.
// Everything an idle iteration does between those (tick, victim draw, CAS
// with its fault retries, failed-steal bookkeeping, backoff) is idleStep,
// which the engine runs without switching the process in.
func (w *Worker) schedLoop() {
	s := w.sched
	if w.step == nil {
		w.step = w.idleStep
	}
	st := &w.idle
	st.backoff = backoffMin
	for !s.done {
		s.hooks.Poll(w.rank.ID())
		st.phase = idleTick
		w.proc.AdvanceFunc(costSchedIter, w.step)
		// idleStep handed back; the sleep it did so after says why.
		switch st.phase {
		case idleBackoff:
			// The region is over or Poll has work: the loop head sees to
			// either, and a Poll does not reset the backoff.
			continue
		case idleCAS:
			w.finishSteal()
		case idleTick:
			if th := w.popRunnable(); th != nil {
				// FBC completion notifications wake blocked joins in place;
				// the queue is always empty under the other policies.
				s.PolicyStats.FBCWakes++
				w.resumeHere(th, th.fenceOnResume)
			} else if e := w.popBottom(); e == nil {
				continue // nothing local: the region is over
			} else if e.fn != nil {
				// A pending child we forked (help-first): start it here.
				// Same rank as the forker ⇒ no fences.
				s.PolicyStats.PendingRuns++
				w.runPending(e)
			} else {
				// Under child-first a rank's deque is empty whenever its
				// scheduler holds the token. Fork parks the forker's
				// continuation and runs the child on the same rank, so the
				// deque is the chain of the running thread's parked
				// ancestors, oldest on top, where thieves take. The token
				// comes back only when a thread finishes with its parent's
				// continuation gone from the bottom (stolen, and everything
				// above it first), or blocks at a Join, which it reaches
				// only after its continuation at that fork was stolen (else
				// the child would have finished first) by a thief whose own
				// deque was empty. Help-first and FBC push pending tasks
				// only. A started continuation here is a scheduler bug.
				panic(fmt.Sprintf("uth: rank %d's scheduler popped the started continuation of thread %d; under child-first its deque is empty whenever it holds the token",
					w.rank.ID(), e.th.tid))
			}
		}
		st.backoff = backoffMin
	}
}

// idleStep is the idle loop between two things that need the worker's
// stack, as a sim.Proc.AdvanceFunc step: called at the end of each of the
// worker's sleeps, it does what follows that sleep and returns the next
// one, or done when schedLoop has to take over. It runs in engine context,
// so it only reads, counts, records and draws: nothing in it may block.
func (w *Worker) idleStep() (sim.Time, bool) {
	s := w.sched
	st := &w.idle
	me := w.rank.ID()
	switch st.phase {
	case idleBackoff:
		now := w.proc.Now()
		s.rec.Span(me, trace.KIdle, st.t0, now-st.t0, 0, 0)
		if st.backoff < backoffMax {
			st.backoff *= 2
		}
		if s.done || s.hooks.PollPending(me) {
			return 0, true
		}
		st.phase = idleTick
		return costSchedIter, false
	case idleTick:
		if len(w.runnable) > 0 || len(w.deque) > 0 || s.done {
			return 0, true
		}
		if len(s.workers) == 1 {
			return w.startBackoff(), false // nobody to steal from
		}
		// One steal attempt, charged the one-sided costs of the
		// uni-address protocol: a remote CAS claiming the top of the
		// victim's deque here, the fetch of the continuation's call stack
		// in finishSteal. The charge includes any fault-injected retries
		// and link perturbation toward the victim; with no fault plan it is
		// exactly the base AtomicTime.
		st.t0 = w.proc.Now()
		st.victim = w.pickVictim()
		st.cas = w.rank.StartAtomic(st.victim)
		st.phase = idleCAS
	}
	// idleCAS: the steal's CAS has just started, or one of its sleeps ended.
	if d, done := st.cas.Next(); !done {
		return d, false
	}
	if len(s.workers[st.victim].deque) > 0 {
		return 0, true // finishSteal takes it, in this same event
	}
	s.Stats.FailedSteals++
	d := w.proc.Now() - st.t0
	s.rec.Span(me, trace.KFailedSteal, st.t0, d, int64(st.victim), 0)
	w.noteStealOutcome(st.victim, d, false)
	return w.startBackoff(), false
}

// startBackoff opens the backoff sleep after an iteration that found
// nothing and returns its length.
func (w *Worker) startBackoff() sim.Time {
	st := &w.idle
	st.t0 = w.proc.Now()
	st.phase = idleBackoff
	return st.backoff
}

// resumeHere hands the rank token to th and parks the scheduler until a
// thread hands it back.
func (w *Worker) resumeHere(th *thread, fence bool) {
	th.worker = w
	th.fenceOnResume = fence
	w.handTo(th).Wake()
	w.proc.Park()
	w.handTo(nil)
}

// handTo gives the rank's token to th, or to the worker's own scheduler
// process when th is nil, and records th as the rank's holder: every
// token handoff goes through here. It returns the process now holding the
// token, for the caller to wake.
func (w *Worker) handTo(th *thread) *sim.Proc {
	w.holder = th
	p := w.proc
	if th != nil {
		p = th.proc
	}
	w.rank.Attach(p)
	return p
}

// popBottom pops the newest entry from the local deque.
func (w *Worker) popBottom() *entry {
	if len(w.deque) == 0 {
		return nil
	}
	e := w.deque[len(w.deque)-1]
	w.deque = w.deque[:len(w.deque)-1]
	return e
}

// finishSteal completes the steal whose CAS idleStep has just seen find
// the victim's deque non-empty, in the event that CAS ended in: it takes
// the oldest entry, fetches the suspended thread's stack and runs it here.
func (w *Worker) finishSteal() {
	s := w.sched
	t0, vID := w.idle.t0, w.idle.victim
	v := s.workers[vID]
	me := w.rank.ID()
	e := v.deque[0]
	v.deque = v.deque[1:]
	e.taken = true
	s.Stats.Steals++
	if s.comm.Net().SameNode(me, vID) {
		s.Stats.IntraSteals++
	}
	// A started continuation migrates its live stack; a pending task
	// (help-first/FBC) moves only its descriptor and migrates nothing —
	// the thread has never run anywhere yet.
	bytes := StackBytes
	if e.fn != nil {
		bytes = taskBytes
		s.PolicyStats.PendingSteals++
	} else {
		s.Stats.Migrations++
	}
	w.rank.ChargeTransfer(vID, bytes)
	// Acquire #2 (with the victim's Release #1 handler) happens here on
	// the thief; the resumed thread needs no further fence.
	s.hooks.OnSteal(me, e.handler)
	// The latency span covers CAS + stack transfer + Acquire #2: the full
	// cost from deciding to steal to being able to run the continuation.
	d := w.proc.Now() - t0
	s.rec.Span(me, trace.KSteal, t0, d, int64(vID), e.th.tid)
	w.noteStealOutcome(vID, d, true)
	if e.fn != nil {
		w.runPending(e)
		return
	}
	w.resumeHere(e.th, false)
}

// noteStealOutcome updates the victim-blacklist state after one attempt
// against v that took latency d. A failure or an over-stealTimeout attempt
// is a strike; blacklistAfter consecutive strikes blacklist the victim for
// a doubling penalty window. A healthy attempt clears the strikes and
// halves the victim's penalty (the decay that re-probes recovered ranks
// quickly). No-op unless Config.VictimBlacklist armed the state.
func (w *Worker) noteStealOutcome(v int, d sim.Time, ok bool) {
	if w.strikes == nil {
		return
	}
	s := w.sched
	slow := d > stealTimeout
	if slow {
		s.Stats.StealTimeouts++
	}
	if ok && !slow {
		w.strikes[v] = 0
		w.blackDur[v] /= 2
		return
	}
	w.strikes[v]++
	if w.strikes[v] < blacklistAfter {
		return
	}
	w.strikes[v] = 0
	dur := min(max(w.blackDur[v]*2, blacklistBase), blacklistMax)
	w.blackDur[v] = dur
	now := w.proc.Now()
	w.blackUntil[v] = now + dur
	s.Stats.Blacklists++
	s.rec.Span(w.rank.ID(), trace.KBlacklist, now, dur, int64(v), int64(w.blackDur[v]))
}

// draw returns the worker's next victim draw, uniform in [0, m) up to a
// bias below m/2⁶⁴: the high word of the mixed stream value times m.
func (w *Worker) draw(m int) int {
	w.rng += 0x9E3779B97F4A7C15
	hi, _ := bits.Mul64(sim.Splitmix(w.rng), uint64(m))
	return int(hi)
}

// pickVictim selects a steal victim. The purely random policy picks any
// other rank uniformly; the locality-aware policy prefers a same-node
// victim whose deque is visibly non-empty, falling back to uniform random
// when the node looks empty.
func (w *Worker) pickVictim() int {
	s := w.sched
	n := len(s.workers)
	me := w.rank.ID()
	if s.cfg.LocalityAware {
		cpn := s.comm.Net().CoresPerNode
		if cpn > 1 {
			base := (me / cpn) * cpn
			off := w.draw(cpn)
			for k := 0; k < cpn; k++ {
				cand := base + (off+k)%cpn
				if cand == me || cand >= n {
					continue
				}
				if w.blackUntil != nil && w.blackUntil[cand] > w.proc.Now() {
					continue
				}
				if len(s.workers[cand].deque) > 0 {
					return cand
				}
			}
		}
	}
	vID := w.draw(n - 1)
	if vID >= me {
		vID++
	}
	if w.blackUntil == nil || w.blackUntil[vID] <= w.proc.Now() {
		return vID
	}
	// The pick is blacklisted: deterministically probe the next non-
	// blacklisted rank. If every other rank is blacklisted, probe the
	// original pick anyway — the scheduler must never stop stealing
	// entirely (termination detection relies on eventual probes).
	now := w.proc.Now()
	for k := 1; k < n; k++ {
		cand := (vID + k) % n
		if cand == me {
			continue
		}
		if w.blackUntil[cand] <= now {
			w.sched.Stats.BlacklistSkips++
			return cand
		}
	}
	return vID
}

// Fork creates a child thread running fn; the scheduling policy decides
// who runs next. ChildFirst runs the child at once and returns when the
// caller is next scheduled, on the thief's rank if its continuation was
// stolen; HelpFirst and FBC push the child and keep running the caller.
func (tb *TB) Fork(fn func(*TB)) *Thread {
	if tb.w.sched.cfg.Policy != ChildFirst {
		return tb.forkHelpFirst(fn)
	}
	w := tb.w
	s := w.sched
	s.hooks.Poll(w.rank.ID())
	tb.th.proc.Charge(costFork)
	s.Stats.Forks++

	h := s.hooks.OnFork(w.rank.ID()) // Release #1

	tb.th.proc.Sync() // thieves read the deque
	s.nextTID++
	child := &thread{worker: w, ptid: tb.th.tid, tid: s.nextTID}
	child.ent = entry{th: tb.th, handler: h}
	child.parent = &child.ent
	child.handle.th = child
	w.deque = append(w.deque, child.parent)
	// Close the parent's segment first so its path length is current at
	// the fork edge, then record the edge itself.
	now := tb.th.proc.Now()
	s.traceSeg(tb.th, w.rank.ID(), now)
	s.rec.Instant(w.rank.ID(), trace.KFork, now, child.tid, tb.th.tid)
	w.spawn(child, fn)
	// The child takes the rank token; the parent parks at the fork point.
	// No time passes between the deque push and the park, so a thief
	// cannot observe a pushed entry whose thread is still running.
	tb.suspendAndResume()
	return &child.handle
}

// spawn starts child's process running fn: it takes the token of the rank
// child.worker names, and when fn returns the thread's final segment is
// recorded and the thread finishes on the rank it ended on. The root's
// process (WorkerMain) ends the region instead.
func (w *Worker) spawn(child *thread, fn func(*TB)) {
	s := w.sched
	w.proc.Engine().Spawn("thread", func(p *sim.Proc) {
		child.proc = p
		cw := child.worker
		cw.handTo(child)
		child.segStart = p.Now()
		child.tb = TB{w: cw, th: child}
		cb := &child.tb
		fn(cb)
		s.traceEnd(child, cb.w.rank.ID(), p.Now())
		child.finish(cb.w)
	})
}

// finish handles thread completion on worker w (the rank that executed the
// final part of the thread). The thread is done — a Join may take its fast
// path — only once its writes are released: at once on the fast path, where
// the parent resumes here, and after Release #2 on the slow path.
func (th *thread) finish(w *Worker) {
	th.proc.Sync() // the deque, done and the waiter are shared
	s := w.sched
	pe := th.parent
	if pe != nil && !pe.taken && len(w.deque) > 0 && w.deque[len(w.deque)-1] == pe {
		// Fast path: the parent's continuation is still at the bottom of
		// our deque — resume it as a serialized call, no fences (§5.1).
		th.done, th.doneRank = true, w.rank.ID()
		w.deque = w.deque[:len(w.deque)-1]
		th.proc.Charge(costJoinFast) // charged on the completing thread
		pe.th.worker = w
		pe.th.fenceOnResume = false
		w.handTo(pe.th).Wake()
		return
	}
	// Slow path: the parent was stolen (or, under help-first spawning,
	// never parked at a fork point at all). Publish our writes
	// (Release #2). The write-back sleeps, so a parent reaching Join in
	// the meantime must find the child still running and wait for it.
	s.hooks.OnChildStolenDone(w.rank.ID())
	th.proc.Sync() // the fence may have banked time, and done is shared
	th.done, th.doneRank = true, w.rank.ID()
	if th.joinWaiter != nil {
		waiter := th.joinWaiter
		th.joinWaiter = nil
		if s.cfg.Policy == FBC {
			// Finish-based coordination: the waiter never migrates. Post
			// a completion notification — a remote atomic on the join
			// counter living on the waiter's rank — and let its own
			// scheduler resume it in place. It still owes Acquire #1
			// unless our writes were released on its rank.
			w.rank.ChargeAtomic(th.waiterRank)
			waiter.worker = s.workers[th.waiterRank]
			waiter.fenceOnResume = th.waiterRank != w.rank.ID()
			s.workers[th.waiterRank].runnable = append(s.workers[th.waiterRank].runnable, waiter)
			w.handTo(nil).Wake()
			return
		}
		// The parent is blocked at Join: migrate it here. It needs
		// Acquire #1 on arrival unless it suspended on this very rank.
		waiter.worker = w
		waiter.fenceOnResume = th.waiterRank != w.rank.ID()
		if waiter.fenceOnResume {
			s.Stats.Migrations++
		}
		w.handTo(waiter).Wake()
		return
	}
	// Nobody waiting yet: give the rank token back to its scheduler.
	w.handTo(nil).Wake()
}

// suspendAndResume parks the calling thread and, upon resumption, rebinds
// it to its (possibly new) worker and runs the migration acquire fence if
// one is owed.
func (tb *TB) suspendAndResume() {
	th := tb.th
	th.proc.Park()
	tb.w = th.worker
	// The next execution segment starts here; any resume-time fence below
	// is charged to it (the thread cannot proceed without the fence, so it
	// belongs on its path).
	th.segStart = th.proc.Now()
	if th.fenceOnResume {
		th.fenceOnResume = false
		tb.w.sched.hooks.OnMigrateArrive(tb.w.rank.ID())
	}
}

// Join waits for a previously forked child. On the fast path (child already
// complete on this rank) it returns immediately with no coherence actions.
// Otherwise the caller releases its writes, blocks, and resumes on the rank
// where the child completes, running an acquire fence on arrival.
func (tb *TB) Join(t *Thread) {
	w := tb.w
	s := w.sched
	s.hooks.Poll(w.rank.ID())
	c := t.th
	tb.th.proc.Sync() // the child sets done
	if c.done {
		tb.th.proc.Charge(costJoinFast)
		if c.doneRank != w.rank.ID() {
			// Acquire #1: the child's writes were released on another rank.
			s.hooks.OnMigrateArrive(w.rank.ID())
		}
		s.rec.Instant(w.rank.ID(), trace.KJoin, tb.th.proc.Now(), c.tid, tb.th.tid)
		return
	}
	// The child is still running somewhere; block. The waiter registration
	// must precede the release fence: the child may complete while the
	// fence advances time, and must find us.
	c.joinWaiter = tb.th
	c.waiterRank = w.rank.ID()
	s.hooks.OnSuspend(w.rank.ID()) // Release #3
	s.traceSeg(tb.th, w.rank.ID(), tb.th.proc.Now())
	// Give this rank's token back to its scheduler and park; the
	// completing child will hand us its rank's token.
	w.handTo(nil).Wake()
	tb.suspendAndResume()
	// The join edge is recorded after the child's final events (we resumed
	// only once it completed), so the analysis sees the child's full path
	// when it folds it into ours.
	s.rec.Instant(tb.w.rank.ID(), trace.KJoin, tb.th.proc.Now(), c.tid, tb.th.tid)
}

// Yield lets long-running leaf code service deferred runtime work
// (lazy-release polls) without a fork/join point.
func (tb *TB) Yield() {
	tb.th.proc.Sync()
	tb.w.sched.hooks.Poll(tb.w.rank.ID())
}

// String summarizes the scheduler counters for log lines.
func (s *Sched) String() string {
	return fmt.Sprintf("sched{forks=%d steals=%d failed=%d migrations=%d}",
		s.Stats.Forks, s.Stats.Steals, s.Stats.FailedSteals, s.Stats.Migrations)
}

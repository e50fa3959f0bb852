// Scheduling-policy seam: the child-first discipline the paper evaluates
// plus two alternatives from the Task Bench study (help-first spawning and
// finish-based coordination), selectable per run without touching the
// child-first fast paths.

package uth

import (
	"fmt"

	"ityr/internal/trace"
)

// SchedPolicy selects the scheduling discipline. The zero value is
// ChildFirst, the paper's discipline; every pre-existing schedule (and
// golden digest) corresponds to it.
type SchedPolicy int

const (
	// ChildFirst is the paper's work-first discipline (§2.1): Fork
	// suspends the parent, pushes its continuation on the local deque,
	// and runs the child immediately. Thieves steal parent continuations
	// (a uni-address stack transfer); joins migrate the blocked parent to
	// the completing child's rank.
	ChildFirst SchedPolicy = iota
	// HelpFirst pushes the child task's descriptor on the deque and lets
	// the parent keep running. Thieves steal not-yet-started tasks (a
	// descriptor transfer, taskBytes), never live stacks; joins
	// still migrate the blocked parent to the completing child's rank.
	HelpFirst
	// FBC is finish-based coordination (the ItoyoriFBC variant of the
	// Task Bench study): help-first spawning, but a blocked parent never
	// migrates — the completing child posts a completion notification (a
	// remote atomic to the join counter on the waiter's rank) and the
	// waiter resumes in place on its own rank.
	FBC
)

// SchedPolicies lists every selectable policy, in the order the -sched
// flag documents them.
var SchedPolicies = []SchedPolicy{ChildFirst, HelpFirst, FBC}

// String returns the policy's flag spelling (childfirst, helpfirst, fbc).
func (p SchedPolicy) String() string {
	switch p {
	case ChildFirst:
		return "childfirst"
	case HelpFirst:
		return "helpfirst"
	case FBC:
		return "fbc"
	}
	return fmt.Sprintf("SchedPolicy(%d)", int(p))
}

// ParseSchedPolicy maps a flag spelling to its policy, failing fast with
// the valid set listed for anything unknown.
func ParseSchedPolicy(s string) (SchedPolicy, error) {
	for _, p := range SchedPolicies {
		if s == p.String() {
			return p, nil
		}
	}
	return ChildFirst, fmt.Errorf("unknown scheduler %q (valid: %s, %s, %s)",
		s, ChildFirst, HelpFirst, FBC)
}

// PolicyStats aggregates events specific to the non-default policies. It
// is deliberately separate from Stats: the golden digests fold Stats via
// %+v, and under ChildFirst every PolicyStats counter stays zero, so the
// pinned schedules cannot move.
type PolicyStats struct {
	// PendingRuns counts pending (not-yet-started) tasks started by the
	// rank that forked them.
	PendingRuns uint64
	// PendingSteals counts pending tasks stolen before they started —
	// descriptor transfers of taskBytes, not stack transfers.
	PendingSteals uint64
	// FBCWakes counts join waiters woken in place by a completion
	// notification under FBC.
	FBCWakes uint64
}

// runPending starts a pending child task on this rank: it spawns the
// thread's process, hands it the rank token, and parks the scheduler until
// the token comes back (exactly the handoff discipline of Fork and
// WorkerMain's root). The entry's closure is consumed; the thread then
// finishes through the normal finish path.
func (w *Worker) runPending(e *entry) {
	child := e.th
	child.worker = w
	fn := e.fn
	e.fn = nil
	w.spawn(child, fn)
	w.proc.Park() // until the child's finish (or a suspend) hands the token back
	w.handTo(nil)
}

// forkHelpFirst is Fork under HelpFirst and FBC: push the child's
// descriptor, keep running the parent. The release fence and trace edge
// match the child-first fork exactly; only who runs next differs.
func (tb *TB) forkHelpFirst(fn func(*TB)) *Thread {
	w := tb.w
	s := w.sched
	s.hooks.Poll(w.rank.ID())
	tb.th.proc.Charge(costFork)
	s.Stats.Forks++

	// Release #1: publish the parent's writes so whoever runs the child —
	// this rank later, or a thief — can acquire against the handler.
	h := s.hooks.OnFork(w.rank.ID())

	tb.th.proc.Sync() // thread IDs and the deque are shared
	s.nextTID++
	child := &thread{worker: w, ptid: tb.th.tid, tid: s.nextTID}
	e := &entry{th: child, handler: h, fn: fn}
	w.deque = append(w.deque, e)
	now := tb.th.proc.Now()
	s.traceSeg(tb.th, w.rank.ID(), now)
	s.rec.Instant(w.rank.ID(), trace.KFork, now, child.tid, tb.th.tid)
	return &Thread{th: child}
}

// popRunnable removes the oldest thread woken in place by an FBC
// completion notification. Always empty under the other policies.
func (w *Worker) popRunnable() *thread {
	if len(w.runnable) == 0 {
		return nil
	}
	th := w.runnable[0]
	w.runnable = w.runnable[1:]
	return th
}

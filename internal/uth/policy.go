// Scheduling-policy seam: the child-first discipline the paper evaluates
// plus two alternatives from the Task Bench study (help-first spawning and
// finish-based coordination), selectable per run. The three differ in two
// decisions only: what Fork publishes on the deque (and whether the caller
// then parks while the child runs), and where thread.finish resumes a join
// waiter. FBC's in-place wakes reach the waiter's own scheduler through
// Worker.runnable.

package uth

import "fmt"

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

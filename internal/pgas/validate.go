package pgas

// The checkout-discipline validator (Config.Validate): deterministic,
// opt-in tracking of the access rights every checked-out view carries —
// byte interval, mode, owning task segment and rank, and the
// release/acquire epochs that order it against remote writes. The
// validator is pure host-side bookkeeping: it never advances virtual
// time, so a validated run follows the exact schedule of an unvalidated
// one up to the first violation, and with no violations the two runs are
// bit-identical (Space.Stats, traces, digests).
//
// Four rules are enforced, each named by a stable string that appears in
// the fail-fast error, the KViolation trace span, and the itytrace
// "validator" report section:
//
//   - write-under-read: a Write or ReadWrite checkout overlaps a region a
//     different task segment holds checked out (or the symmetric case: a
//     Read checkout overlaps an outstanding writable view). The writer's
//     checkin would clobber bytes the reader is entitled to, or the
//     reader copies bytes mid-update.
//   - conflicting-checkouts: two writable checkouts of overlapping
//     regions are outstanding at once from different task segments; the
//     later checkin silently overwrites the earlier one.
//   - use-after-checkin: a Checkin that matches no outstanding checkout
//     but does match a recently retired one — the task kept using rights
//     it had already returned (double checkin).
//   - unreleased-write: a readable checkout observes bytes whose last
//     writer is a task on another rank, and those bytes did not reach
//     home memory before the reader's most recent acquire fence. Under
//     the SC-for-DRF protocol such a read returns home bytes or stale
//     cache bytes nondeterministically — exactly the lost-update family
//     once tracked as a ROADMAP known bug.
//
// The happens-before ledger behind unreleased-write tracks, per written
// byte interval, the virtual time the bytes became home-visible — set at
// the instant of whatever operation puts them home: a release fence's
// write-back run, a write-through or no-cache checkin, a cache-pressure
// flush, or a home-local checkin that stores straight into the home
// segment (rma.Put copies host bytes at the call
// instant, so the put's call time IS the visibility time). Each rank
// records the virtual time of its last completed acquire fence (which
// self-invalidates its cache). A remote write is proven visible iff it
// was home before the reader's last acquire: only then is every stale
// copy of it provably gone from the reader's cache. Any true
// release→acquire chain (fork handlers, steal acquires, migration
// fences) homes the writes before the dependent acquire completes, so
// data-race-free programs never trip the rule — including tasks reading
// their own writes after migrating, whose bytes were homed by the
// fork-time release handler or by earlier eviction.

import (
	"fmt"

	"ityr/internal/sim"
	"ityr/internal/trace"
)

// ViolationRule identifies a checkout-discipline rule (see the package
// comment of this file for semantics).
type ViolationRule int

// The validator's rules, in detection-priority order.
const (
	// VWriteUnderRead: writable checkout overlapping an outstanding
	// read-only view of another task (or the symmetric read-side case).
	VWriteUnderRead ViolationRule = iota
	// VConflictingCheckouts: two writable checkouts of overlapping
	// regions outstanding at once from different tasks.
	VConflictingCheckouts
	// VUseAfterCheckin: a checkin matching only an already-retired
	// checkout record (double checkin).
	VUseAfterCheckin
	// VUnreleasedWrite: a read observing a remote write no completed
	// release fence covers as of the reader's last acquire.
	VUnreleasedWrite
)

var ruleNames = [...]string{
	"write-under-read", "conflicting-checkouts", "use-after-checkin", "unreleased-write",
}

// String returns the rule's stable name — the string diagnostics, trace
// reports, and the DESIGN.md §5 rule table all use (e.g.
// "write-under-read").
func (r ViolationRule) String() string {
	if int(r) < len(ruleNames) {
		return ruleNames[r]
	}
	return fmt.Sprintf("rule(%d)", int(r))
}

// valRec is one outstanding (or recently retired) checkout's access right.
type valRec struct {
	lo, hi uint64
	mode   Mode
	rank   int
	task   int64
	t0     sim.Time // checkout time (retirement time once retired)
}

// writeRec is the last writer of one byte interval: who wrote it, when the
// write committed (checkin), and when its bytes reached home memory
// (homed < 0 while they are still only in the writer's cache).
type writeRec struct {
	lo, hi uint64
	rank   int
	task   int64
	t      sim.Time
	homed  sim.Time // virtual time the bytes became home-visible; -1 = not yet
}

// retiredRing bounds the use-after-checkin lookback window.
const retiredRing = 128

// validator holds the space-global discipline state.
type validator struct {
	space *Space

	out     []valRec // outstanding checkouts, all ranks, append order
	retired []valRec // ring of recently retired checkouts
	retPos  int
	writes  []writeRec
	acqT    []sim.Time // virtual time of each rank's last completed acquire fence
	viol    []trace.ViolationRecord
}

func newValidator(s *Space, nranks int) *validator {
	return &validator{space: s, acqT: make([]sim.Time, nranks)}
}

// winOf resolves a global range's start to (window ID, home-segment
// offset) for the diagnostics; (-1, 0) when the range is unresolvable
// (e.g. the allocation was freed between the access and the report).
func (v *validator) winOf(lo, hi uint64) (int, int64) {
	a, err := v.space.findAlloc(lo, hi-lo)
	if err != nil {
		return -1, 0
	}
	_, off := a.homeOf(lo, uint64(v.space.cfg.BlockSize))
	return a.win.ID(), int64(off)
}

// record logs one violation: full ViolationRecord for the report, a
// KViolation span on the trace timeline, and the fail-fast error the
// triggering call returns. t0 is the conflicting earlier event's time,
// now the access that tripped the rule.
func (v *validator) record(rule ViolationRule, lo, hi uint64, rank int, task int64,
	otherRank int, otherTask int64, t0, now sim.Time, detail string) error {
	win, off := v.winOf(lo, hi)
	rec := trace.ViolationRecord{
		Time: int64(t0), Dur: int64(now - t0),
		Rank: rank, Task: task, OtherRank: otherRank, OtherTask: otherTask,
		Rule: rule.String(), Lo: lo, Hi: hi, Win: win, Off: off,
		Detail: detail,
	}
	v.viol = append(v.viol, rec)
	v.space.rec.Span(rank, trace.KViolation, t0, now-t0, int64(rule), task)
	return fmt.Errorf("%w [%s]: %s", ErrViolation, rule, detail)
}

func overlap(aLo, aHi, bLo, bHi uint64) (uint64, uint64, bool) {
	lo, hi := aLo, aHi
	if bLo > lo {
		lo = bLo
	}
	if bHi < hi {
		hi = bHi
	}
	return lo, hi, lo < hi
}

// onCheckout validates a checkout of [lo, hi) before any cache state
// changes. A violation fails the checkout fast. Clean checkouts are
// registered separately (registerCheckout) once the checkout succeeds, so
// capacity/range failures leave no ghost rights.
func (v *validator) onCheckout(l *Local, lo, hi uint64, mode Mode) error {
	now := l.rank.Proc().Now()
	rank := l.rank.ID()
	task := v.space.taskOf(rank)

	// Concurrent-checkout rules: scan the outstanding rights of other
	// task segments for overlap.
	for i := range v.out {
		o := &v.out[i]
		if o.task == task && o.rank == rank {
			continue
		}
		oLo, oHi, ok := overlap(lo, hi, o.lo, o.hi)
		if !ok {
			continue
		}
		bothWrite := mode != Read && o.mode != Read
		rule := VWriteUnderRead
		if bothWrite {
			rule = VConflictingCheckouts
		} else if mode == Read && o.mode == Read {
			continue // concurrent readers are the contract's happy path
		}
		detail := fmt.Sprintf(
			"task %d on rank %d checked out [%#x,%#x) for %v while task %d on rank %d holds [%#x,%#x) for %v (overlap [%#x,%#x))",
			task, rank, lo, hi, mode, o.task, o.rank, o.lo, o.hi, o.mode, oLo, oHi)
		return v.record(rule, oLo, oHi, rank, task, o.rank, o.task, o.t0, now, detail)
	}

	// Unreleased-write rule: a readable checkout must only observe remote
	// writes that were home-visible before this rank's last acquire fence
	// invalidated its cache.
	if mode != Write {
		for i := range v.writes {
			w := &v.writes[i]
			if w.rank == rank {
				continue // own cache: a rank always sees its own writes
			}
			oLo, oHi, ok := overlap(lo, hi, w.lo, w.hi)
			if !ok {
				continue
			}
			if w.homed >= 0 && w.homed <= v.acqT[rank] {
				continue // homed before our acquire: properly synchronized
			}
			why := fmt.Sprintf("the write reached home at %d ns, after the reader's last acquire fence at %d ns", w.homed, v.acqT[rank])
			if w.homed < 0 {
				why = "the write is still unflushed in the writer's cache"
			}
			detail := fmt.Sprintf(
				"task %d on rank %d checked out [%#x,%#x) for %v, observing [%#x,%#x) written by task %d on rank %d with no release covering the write before the reader's last acquire (%s)",
				task, rank, lo, hi, mode, oLo, oHi, w.task, w.rank, why)
			return v.record(VUnreleasedWrite, oLo, oHi, rank, task, w.rank, w.task, w.t, now, detail)
		}
	}

	return nil
}

// registerCheckout records a successful checkout as an outstanding access
// right. t0 is the time Checkout began.
func (v *validator) registerCheckout(l *Local, lo, hi uint64, mode Mode, t0 sim.Time) {
	rank := l.rank.ID()
	task := v.space.taskOf(rank)
	v.out = append(v.out, valRec{lo: lo, hi: hi, mode: mode, rank: rank, task: task, t0: t0})
}

// onCheckin retires the matching outstanding right and, for written
// modes, records the interval's new last writer.
func (v *validator) onCheckin(l *Local, lo, hi uint64, mode Mode) {
	now := l.rank.Proc().Now()
	rank := l.rank.ID()
	for i := len(v.out) - 1; i >= 0; i-- {
		o := v.out[i]
		if o.rank != rank || o.lo != lo || o.hi != hi || o.mode != mode {
			continue
		}
		v.out = append(v.out[:i], v.out[i+1:]...)
		o.t0 = now
		if len(v.retired) < retiredRing {
			v.retired = append(v.retired, o)
		} else {
			v.retired[v.retPos] = o
			v.retPos = (v.retPos + 1) % retiredRing
		}
		if mode != Read {
			v.noteWrite(lo, hi, rank, o.task, now)
		}
		return
	}
}

// noteWrite installs [lo, hi) as last-written by (rank, task), splitting
// any previous writers' records around it.
func (v *validator) noteWrite(lo, hi uint64, rank int, task int64, t sim.Time) {
	keep := make([]writeRec, 0, len(v.writes)+2)
	for _, w := range v.writes {
		if w.hi <= lo || w.lo >= hi {
			keep = append(keep, w)
			continue
		}
		if w.lo < lo {
			c := w
			c.hi = lo
			keep = append(keep, c)
		}
		if w.hi > hi {
			c := w
			c.lo = hi
			keep = append(keep, c)
		}
	}
	keep = append(keep, writeRec{lo: lo, hi: hi, rank: rank, task: task, t: t, homed: -1})
	v.writes = keep
}

// markHomed records that the bytes of [lo, hi) reached home memory at
// virtual time now: any write record overlapping the range becomes
// home-visible (splitting records homed only in part). The first homing
// wins — re-putting already-homed bytes cannot make them less visible.
func (v *validator) markHomed(lo, hi uint64, now sim.Time) {
	keep := make([]writeRec, 0, len(v.writes)+2)
	for _, w := range v.writes {
		if w.homed >= 0 || w.hi <= lo || w.lo >= hi {
			keep = append(keep, w)
			continue
		}
		if w.lo < lo {
			c := w
			c.hi = lo
			keep = append(keep, c)
		}
		mid := w
		if lo > mid.lo {
			mid.lo = lo
		}
		if hi < mid.hi {
			mid.hi = hi
		}
		mid.homed = now
		keep = append(keep, mid)
		if w.hi > hi {
			c := w
			c.lo = hi
			keep = append(keep, c)
		}
	}
	v.writes = keep
}

// onMissingCheckin classifies a checkin with no outstanding match: if the
// same right was recently retired this is a double checkin
// (use-after-checkin); otherwise the caller falls back to the plain
// unmatched-checkin error.
func (v *validator) onMissingCheckin(l *Local, lo, hi uint64, mode Mode) error {
	now := l.rank.Proc().Now()
	rank := l.rank.ID()
	task := v.space.taskOf(rank)
	for i := len(v.retired) - 1; i >= 0; i-- {
		o := v.retired[(v.retPos+i)%len(v.retired)]
		if o.rank != rank || o.lo != lo || o.hi != hi || o.mode != mode {
			continue
		}
		detail := fmt.Sprintf(
			"task %d on rank %d checked in [%#x,%#x) %v again: task %d already checked it in; the view's rights were returned and may have been recycled",
			task, rank, lo, hi, mode, o.task)
		return v.record(VUseAfterCheckin, lo, hi, rank, task, o.rank, o.task, o.t0, now, detail)
	}
	return nil
}

// onAcquire records the completion time of rank's acquire fence (whose
// self-invalidation purged every stale copy from its cache). Soundness
// note (no false positives): a true release→acquire chain homes the
// writes at a virtual time no later than the dependent acquire — the
// lazy-release poll loop waits for the write-back, and migration fences
// release on the old rank before the thread resumes — so the comparison
// homed <= acqT always admits properly synchronized reads.
func (v *validator) onAcquire(rank int, now sim.Time) {
	v.acqT[rank] = now
}

// Violations returns the violations recorded so far, ordered by the time
// the rule tripped (ties by rank, then global offset).
func (v *validator) Violations() []trace.ViolationRecord {
	out := append([]trace.ViolationRecord(nil), v.viol...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && less(&out[j], &out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func less(a, b *trace.ViolationRecord) bool {
	ae, be := a.Time+a.Dur, b.Time+b.Dur
	if ae != be {
		return ae < be
	}
	if a.Rank != b.Rank {
		return a.Rank < b.Rank
	}
	return a.Lo < b.Lo
}

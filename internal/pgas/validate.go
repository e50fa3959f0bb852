package pgas

// The checkout-discipline validator (Config.Validate): deterministic,
// opt-in checking of the access rights every checked-out view carries
// against the four rules of DESIGN.md §5.3 (the ViolationRule constants
// below). It is pure host-side bookkeeping: it never advances virtual
// time, so a validated run follows the exact schedule of an unvalidated
// one up to the first violation, and with no violations the two runs are
// bit-identical (Space.Stats, traces, digests). A violation fails the
// call fast and is named by its rule's stable string in the error, the
// KViolation trace span and the itytrace "validator" report section.
//
// The validator keeps no copy of state pgas already holds. The
// outstanding rights are the ranks' own Local.outstanding records, which
// Checkout stamps with their task segment, start time and registration
// order; a checkout walks every rank's list. The happens-before ledger
// behind unreleased-write lives on each allocation, one region.Map of
// last-writer records per block, so a checkout, checkin or homing costs
// O(log n + k) in each block it touches for the k records it overlaps
// there, and shifts only that block's records; freeing the allocation
// drops it. A record holds the virtual time its bytes became home-visible,
// stamped where they land home: a write-back run's Put (release fence,
// cache-pressure flush, write-through checkin) or a no-cache or
// home-local checkin's store (rma.Put copies host bytes at the call
// instant). Each rank records when its last acquire fence, which
// self-invalidates its cache, completed. A remote write is proven visible
// iff it was home before the reader's last acquire: only then is every
// stale copy of it gone from the reader's cache. Any true release→acquire
// chain (fork handlers, steal acquires, migration fences) homes the writes
// before the dependent acquire completes, so data-race-free programs never
// trip the rule. When several records break a rule at once, the oldest is
// reported: the right registered first, or the write committed first (the
// lowest address among fragments of one write).

import (
	"cmp"
	"fmt"
	"slices"

	"ityr/internal/region"
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

// writeRec is the last writer of a run of an allocation's bytes: who wrote
// it, in which order (seq, shared with checkout registrations), when the
// write committed (checkin), and when and by which homing its bytes
// reached home memory. A record is a maximal run of one writeRec, so hid
// keeps apart pieces of one write homed at one instant by two homings.
type writeRec struct {
	rank  int
	task  int64
	seq   uint64
	t     sim.Time
	homed sim.Time // virtual time the bytes became home-visible; -1 = not yet
	hid   uint64   // the homing that homed them; 0 = not yet
}

// retiredRec is a recently retired checkout's access right, kept for the
// use-after-checkin lookback (pgas forgets a right at its checkin).
type retiredRec struct {
	lo, hi uint64
	mode   Mode
	rank   int
	task   int64
	t      sim.Time // retirement time
}

// retiredRing bounds the use-after-checkin lookback window.
const retiredRing = 128

// validator holds the discipline state pgas does not: the retired rights,
// each rank's last acquire, the order counter and the violations.
type validator struct {
	space *Space

	seq     uint64                  // order of the next registration or write
	homings uint64                  // number of the last homing
	retired [retiredRing]retiredRec // ring of recently retired checkouts, all ranks
	nret    int                     // checkouts retired so far
	acqT    []sim.Time              // virtual time of each rank's last completed acquire fence
	viol    []trace.ViolationRecord

	// onHomed, when set, is told of every homing the ledger applies; the
	// reference test replays them into the linear validator it keeps.
	onHomed func(lo, hi uint64, now sim.Time)
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

// onCheckout validates a checkout of [lo, hi), which lies in the live
// allocation a, before any cache state changes. A violation fails the
// checkout fast.
func (v *validator) onCheckout(l *Local, a *allocation, lo, hi uint64, mode Mode) error {
	now := l.rank.Proc().Now()
	rank := l.rank.ID()
	task := v.space.taskOf(rank)

	// Concurrent-checkout rules: the oldest outstanding right of another
	// task segment that overlaps, unless both are reads (concurrent readers
	// are the contract's happy path).
	var o *checkoutRec
	oRank := 0
	for r := range v.space.locals {
		for i := range v.space.locals[r].outstanding {
			c := &v.space.locals[r].outstanding[i]
			if r == rank && c.task == task || mode == Read && c.mode == Read ||
				max(lo, c.addr) >= min(hi, c.addr+c.size) {
				continue
			}
			if o == nil || c.seq < o.seq {
				o, oRank = c, r
			}
		}
	}
	if o != nil {
		oLo, oHi := max(lo, o.addr), min(hi, o.addr+o.size)
		rule := VWriteUnderRead
		if mode != Read && o.mode != Read {
			rule = VConflictingCheckouts
		}
		detail := fmt.Sprintf(
			"task %d on rank %d checked out [%#x,%#x) for %v while task %d on rank %d holds [%#x,%#x) for %v (overlap [%#x,%#x))",
			task, rank, lo, hi, mode, o.task, oRank, o.addr, o.addr+o.size, o.mode, oLo, oHi)
		return v.record(rule, oLo, oHi, rank, task, oRank, o.task, o.t0, now, detail)
	}

	// Unreleased-write rule: a readable checkout must only observe remote
	// writes that were home-visible before this rank's last acquire fence
	// invalidated its cache.
	if mode == Write {
		return nil
	}
	var w *writeRec
	var wLo, wHi uint64 // w's bytes, up to hi
	v.eachLedger(a, lo, hi, false, func(m *region.Map[writeRec], iv region.Interval) {
		ov := m.Overlapping(iv)
		for i := range ov {
			switch c := &ov[i].Val; {
			case w != nil && *c == *w && ov[i].Lo == wHi:
				wHi = ov[i].Hi // w's record runs on from the block before
			case c.rank == rank || c.homed >= 0 && c.homed <= v.acqT[rank]:
				// own cache, or homed before our acquire
			case w == nil || c.seq < w.seq:
				w, wLo, wHi = c, ov[i].Lo, ov[i].Hi
			}
		}
	})
	if w == nil {
		return nil
	}
	oLo, oHi := max(lo, wLo), min(hi, wHi)
	why := fmt.Sprintf("the write reached home at %d ns, after the reader's last acquire fence at %d ns", w.homed, v.acqT[rank])
	if w.homed < 0 {
		why = "the write is still unflushed in the writer's cache"
	}
	detail := fmt.Sprintf(
		"task %d on rank %d checked out [%#x,%#x) for %v, observing [%#x,%#x) written by task %d on rank %d with no release covering the write before the reader's last acquire (%s)",
		task, rank, lo, hi, mode, oLo, oHi, w.task, w.rank, why)
	return v.record(VUnreleasedWrite, oLo, oHi, rank, task, w.rank, w.task, w.t, now, detail)
}

// stamp names a successful checkout's owner: the task segment, the time
// Checkout began, and the registration order conflicts are reported by.
func (v *validator) stamp(l *Local, rec *checkoutRec, t0 sim.Time) {
	rec.task = v.space.taskOf(l.rank.ID())
	rec.t0 = t0
	rec.seq = v.seq
	v.seq++
}

// onCheckin handles a checkin of [addr, addr+size) that matches the
// rank's outstanding record idx. A matched right is retired and, for
// written modes, becomes its bytes' last writer. An unmatched one (idx <
// 0) is a double checkin if the same right was recently retired
// (use-after-checkin); otherwise it returns nil and the caller reports the
// plain unmatched checkin.
func (v *validator) onCheckin(l *Local, idx int, addr Addr, size uint64, mode Mode) error {
	now := l.rank.Proc().Now()
	rank := l.rank.ID()
	lo, hi := addr, addr+size
	if idx < 0 {
		task := v.space.taskOf(rank)
		for i := v.nret - 1; i >= max(0, v.nret-retiredRing); i-- {
			o := v.retired[i%retiredRing]
			if o.rank != rank || o.lo != lo || o.hi != hi || o.mode != mode {
				continue
			}
			detail := fmt.Sprintf(
				"task %d on rank %d checked in [%#x,%#x) %v again: task %d already checked it in; the view's rights were returned and may have been recycled",
				task, rank, lo, hi, mode, o.task)
			return v.record(VUseAfterCheckin, lo, hi, rank, task, o.rank, o.task, o.t, now, detail)
		}
		return nil
	}
	task := l.outstanding[idx].task
	v.retired[v.nret%retiredRing] = retiredRec{lo: lo, hi: hi, mode: mode, rank: rank, task: task, t: now}
	v.nret++
	if mode == Read {
		return nil
	}
	if a, err := v.space.findAlloc(lo, size); err == nil { // else freed: no ledger
		w := writeRec{rank: rank, task: task, seq: v.seq, t: now, homed: -1}
		v.eachLedger(a, lo, hi, true, func(m *region.Map[writeRec], iv region.Interval) { m.Assign(iv, w) })
		v.seq++
	}
	return nil
}

// onHomeStore marks the bytes a written checkin stored straight into home
// memory home-visible: the whole view under NoCache, the home pieces
// otherwise.
func (v *validator) onHomeStore(l *Local, rec *checkoutRec) {
	now := l.rank.Proc().Now()
	if v.space.cfg.Policy == NoCache {
		v.markHomed(rec.addr, rec.addr+rec.size, now)
		return
	}
	for _, p := range rec.pieces {
		if p.cb == nil {
			v.markHomed(p.g, p.g+uint64(p.n), now)
		}
	}
}

// markHomed records that the bytes of [lo, hi) reached home memory at
// virtual time now: the unhomed parts of the write records overlapping the
// range become home-visible. The first homing wins — re-putting
// already-homed bytes cannot make them less visible — so homed records are
// never split.
func (v *validator) markHomed(lo, hi uint64, now sim.Time) {
	if v.onHomed != nil {
		v.onHomed(lo, hi, now)
	}
	a, err := v.space.findAlloc(lo, hi-lo)
	if err != nil {
		return
	}
	v.homings++
	v.eachLedger(a, lo, hi, false, func(m *region.Map[writeRec], iv region.Interval) {
		ov := m.Overlapping(iv)
		for i := range ov {
			if w := ov[i].Val; w.homed < 0 {
				w.homed, w.hid = now, v.homings
				m.Assign(ov[i].Intersect(iv), w)
				ov = m.Overlapping(iv) // the same entries: a new hid merges with none
			}
		}
	})
}

// eachLedger calls fn, in address order, with the ledger map of each block
// of a that [lo, hi) overlaps and the part of [lo, hi) in that block. It
// grows a's ledger up to hi if grow is set, and stops at its end if not.
func (v *validator) eachLedger(a *allocation, lo, hi uint64, grow bool, fn func(*region.Map[writeRec], region.Interval)) {
	bs := uint64(v.space.cfg.BlockSize)
	for lo < hi {
		b := (lo - a.base) / bs
		if n := uint64(len(a.writes)); b >= n {
			if !grow {
				return
			}
			a.writes = append(a.writes, make([]region.Map[writeRec], b+1-n)...)
		}
		iv := region.Interval{Lo: lo, Hi: min(hi, a.base+(b+1)*bs)}
		fn(&a.writes[b], iv)
		lo = iv.Hi
	}
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
	out := slices.Clone(v.viol)
	slices.SortStableFunc(out, func(a, b trace.ViolationRecord) int {
		return cmp.Or(cmp.Compare(a.Time+a.Dur, b.Time+b.Dur), cmp.Compare(a.Rank, b.Rank), cmp.Compare(a.Lo, b.Lo))
	})
	return out
}

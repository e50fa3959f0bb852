package pgas

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ityr/internal/netmodel"
	"ityr/internal/rma"
	"ityr/internal/sim"
	"ityr/internal/trace"
)

// TestValidatorMatchesLinearReference drives the validator and the linear
// one it replaced (refValidator, kept below unchanged but for its names)
// through the same seeded random multi-rank programs — overlapping
// single- and multi-block checkouts in every mode, double and unmatched
// checkins, write-backs, both acquire fences, over collective and
// noncollective allocations, under every cache policy — and requires the
// same error from every call and the same violation records in the same
// order. The reference sees the same events as the validator: the program
// calls it beside each Checkout, Checkin and acquire fence, and the
// validator's onHomed seam hands it every homing.
func TestValidatorMatchesLinearReference(t *testing.T) {
	rules := map[string]int{}
	for seed := int64(1); seed <= 64; seed++ {
		pol := Policies[int(seed)%len(Policies)]
		t.Run(fmt.Sprintf("seed%d-%v", seed, pol), func(t *testing.T) {
			for _, v := range runRefProgram(t, seed, pol) {
				rules[v.Rule]++
			}
		})
	}
	t.Logf("rules tripped: %v", rules)
	// The programs must reach every rule, or agreeing proves little.
	for _, r := range ruleNames {
		if rules[r] == 0 {
			t.Errorf("no program tripped %s: %v", r, rules)
		}
	}
}

// runRefProgram runs one random program on 4 ranks (2 per node) and
// returns the violations both validators agreed on.
func runRefProgram(t *testing.T, seed int64, pol Policy) []trace.ViolationRecord {
	const nranks, ops, maxHeld = 4, 200, 3
	e := sim.NewEngine()
	c := rma.New(e, nranks, netmodel.Default(2))
	s := New(c, Config{BlockSize: 256, SubBlockSize: 64, CacheSize: 4096, Policy: pol, Validate: true})
	task := make([]int64, nranks) // each rank's current task segment
	s.TaskOf = func(r int) int64 { return task[r] }
	ref := newRefValidator(s, nranks)
	s.val.onHomed = ref.markHomed

	type span struct {
		addr Addr
		size uint64
	}
	type right struct {
		span
		mode Mode
	}
	var allocs []span
	pub := make([]ReleaseHandler, nranks) // each rank's last satisfied release
	failed := false
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		failed = true
	}

	for r := 0; r < nranks; r++ {
		l := s.Local(r)
		rng := rand.New(rand.NewSource(seed*1000 + int64(r)))
		e.Spawn("rank", func(p *sim.Proc) {
			l.Rank().Attach(p)
			if r == 0 {
				allocs = append(allocs,
					span{l.AllocCollective(2048, BlockCyclicDist), 2048},
					span{l.AllocCollective(2048, BlockDist), 2048})
			}
			nc := l.AllocLocal(1024)
			l.Rank().Barrier()
			allocs = append(allocs, span{nc, 1024})
			l.Rank().Barrier()

			checkout := func(a right) bool {
				p.Sync()
				t0 := p.Now()
				want := ref.onCheckout(l, a.addr, a.addr+a.size, a.mode)
				_, err := l.Checkout(a.addr, a.size, a.mode)
				switch {
				case want != nil:
					if err == nil || err.Error() != want.Error() {
						fail("rank %d: Checkout%v = %v, reference %v", r, a, err, want)
					}
					return false
				case err != nil:
					if !errors.Is(err, ErrTooMuchCheckout) {
						fail("rank %d: Checkout%v = %v, reference passed it", r, a, err)
					}
					return false
				}
				ref.registerCheckout(l, a.addr, a.addr+a.size, a.mode, t0)
				return true
			}
			checkin := func(a right) {
				p.Sync()
				matched := false
				for _, o := range l.outstanding {
					matched = matched || o.addr == a.addr && o.size == a.size && o.mode == a.mode
				}
				var want error
				if matched {
					ref.onCheckin(l, a.addr, a.addr+a.size, a.mode)
				} else if want = ref.onMissingCheckin(l, a.addr, a.addr+a.size, a.mode); want == nil {
					want = ErrUnmatchedCheckin
				}
				err := l.Checkin(a.addr, a.size, a.mode)
				if (err == nil) != (want == nil) || err != nil && !errors.Is(err, want) && err.Error() != want.Error() {
					fail("rank %d: Checkin%v = %v, reference %v", r, a, err, want)
				}
			}
			acquired := func() {
				p.Sync()
				ref.onAcquire(r, p.Now())
			}

			var held []right
			var last right // the last right checked in
			for op := 0; op < ops && !failed; op++ {
				task[r] = int64(1 + rng.Intn(3))
				switch k := rng.Intn(20); {
				case k < 8 && len(held) < maxHeld:
					a := allocs[rng.Intn(len(allocs))]
					n := uint64(1 + rng.Intn(600))
					if rng.Intn(2) == 0 {
						n = uint64(1 + rng.Intn(64))
					}
					n = min(n, a.size)
					off := uint64(rng.Int63n(int64(a.size - n + 1)))
					ri := right{span{a.addr + off, n}, Mode(rng.Intn(3))}
					if checkout(ri) {
						held = append(held, ri)
					}
				case k < 14 && len(held) > 0:
					i := rng.Intn(len(held))
					last = held[i]
					held = append(held[:i], held[i+1:]...)
					checkin(last)
				case k == 14 && last.size > 0:
					checkin(last) // a double checkin
				case k == 15:
					a := allocs[rng.Intn(len(allocs))]
					checkin(right{span{a.addr + 8, 8}, Read}) // never checked out
				case k == 16:
					h := l.ReleaseLazy()
					l.ReleaseFence()
					pub[r] = h
				case k == 17:
					l.AcquireFence()
					acquired()
				case k == 18:
					l.AcquireWith(pub[rng.Intn(nranks)])
					acquired()
				default:
					l.AcquireWith(l.ReleaseLazy())
					acquired()
				}
				l.Poll()
				p.Advance(sim.Time(rng.Intn(3000)))
			}
			for _, a := range held {
				checkin(a)
			}
			l.ReleaseFence()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	got, want := s.Violations(), ref.Violations()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("violations differ:\n got %+v\nwant %+v", got, want)
	}
	return got
}

// valRec is one outstanding (or recently retired) checkout's access right.
type valRec struct {
	lo, hi uint64
	mode   Mode
	rank   int
	task   int64
	t0     sim.Time // checkout time (retirement time once retired)
}

// refWriteRec is the last writer of one byte interval: who wrote it, when the
// write committed (checkin), and when its bytes reached home memory
// (homed < 0 while they are still only in the writer's cache).
type refWriteRec struct {
	lo, hi uint64
	rank   int
	task   int64
	t      sim.Time
	homed  sim.Time // virtual time the bytes became home-visible; -1 = not yet
}

// refRetiredRing bounds the use-after-checkin lookback window.
const refRetiredRing = 128

// refValidator holds the space-global discipline state.
type refValidator struct {
	space *Space

	out     []valRec // outstanding checkouts, all ranks, append order
	retired []valRec // ring of recently retired checkouts
	retPos  int
	writes  []refWriteRec
	acqT    []sim.Time // virtual time of each rank's last completed acquire fence
	viol    []trace.ViolationRecord
}

func newRefValidator(s *Space, nranks int) *refValidator {
	return &refValidator{space: s, acqT: make([]sim.Time, nranks)}
}

// winOf resolves a global range's start to (window ID, home-segment
// offset) for the diagnostics; (-1, 0) when the range is unresolvable
// (e.g. the allocation was freed between the access and the report).
func (v *refValidator) winOf(lo, hi uint64) (int, int64) {
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
func (v *refValidator) record(rule ViolationRule, lo, hi uint64, rank int, task int64,
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
func (v *refValidator) onCheckout(l *Local, lo, hi uint64, mode Mode) error {
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
func (v *refValidator) registerCheckout(l *Local, lo, hi uint64, mode Mode, t0 sim.Time) {
	rank := l.rank.ID()
	task := v.space.taskOf(rank)
	v.out = append(v.out, valRec{lo: lo, hi: hi, mode: mode, rank: rank, task: task, t0: t0})
}

// onCheckin retires the matching outstanding right and, for written
// modes, records the interval's new last writer.
func (v *refValidator) onCheckin(l *Local, lo, hi uint64, mode Mode) {
	now := l.rank.Proc().Now()
	rank := l.rank.ID()
	for i := len(v.out) - 1; i >= 0; i-- {
		o := v.out[i]
		if o.rank != rank || o.lo != lo || o.hi != hi || o.mode != mode {
			continue
		}
		v.out = append(v.out[:i], v.out[i+1:]...)
		o.t0 = now
		if len(v.retired) < refRetiredRing {
			v.retired = append(v.retired, o)
		} else {
			v.retired[v.retPos] = o
			v.retPos = (v.retPos + 1) % refRetiredRing
		}
		if mode != Read {
			v.noteWrite(lo, hi, rank, o.task, now)
		}
		return
	}
}

// noteWrite installs [lo, hi) as last-written by (rank, task), splitting
// any previous writers' records around it.
func (v *refValidator) noteWrite(lo, hi uint64, rank int, task int64, t sim.Time) {
	keep := make([]refWriteRec, 0, len(v.writes)+2)
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
	keep = append(keep, refWriteRec{lo: lo, hi: hi, rank: rank, task: task, t: t, homed: -1})
	v.writes = keep
}

// markHomed records that the bytes of [lo, hi) reached home memory at
// virtual time now: any write record overlapping the range becomes
// home-visible (splitting records homed only in part). The first homing
// wins — re-putting already-homed bytes cannot make them less visible.
func (v *refValidator) markHomed(lo, hi uint64, now sim.Time) {
	keep := make([]refWriteRec, 0, len(v.writes)+2)
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
func (v *refValidator) onMissingCheckin(l *Local, lo, hi uint64, mode Mode) error {
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
func (v *refValidator) onAcquire(rank int, now sim.Time) {
	v.acqT[rank] = now
}

// Violations returns the violations recorded so far, ordered by the time
// the rule tripped (ties by rank, then global offset).
func (v *refValidator) Violations() []trace.ViolationRecord {
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

// Package rma provides the one-sided communication layer Itoyori builds on:
// a simulated equivalent of MPI-3 RMA (MPI_WIN_UNIFIED).
//
// A Comm groups a fixed set of ranks, each driven by one simulated process.
// Windows expose per-rank memory segments for one-sided Get/Put (nonblocking
// until Flush) and remote atomics (blocking, as when offloaded to RDMA).
// All costs are charged in virtual time through the netmodel parameters;
// payload movement itself happens eagerly in host memory, which is sound
// because Itoyori requires data-race-free programs — no conflicting access
// can overlap an in-flight transfer.
//
// # Errors versus panics
//
// Window access validation distinguishes two cases. Programmer-error
// invariants — a rank index or byte range that no correct program can
// produce, because the layers above (pgas) validate user input before any
// window op — panic, but they panic with a typed error value wrapped
// around ErrRankOutOfRange or ErrOutOfRange, so a recover() (or a direct
// CheckAccess call) can classify the failure with errors.Is. Runtime
// conditions a correct program can hit (a fault plan exhausting an op's
// retry attempts) also surface as wrapped typed errors, via panic at the
// fail-stop point — the simulated equivalent of a fatal MPI error.
//
// # Fault injection
//
// When a fault.Injector is armed (SetFaults), one-sided ops may fail
// transiently before taking effect: the origin is charged a timeout plus a
// capped exponential backoff with seeded jitter, then retries. Because the
// failure is injected before the memory effect, a retried Get/Put/
// CompareAndSwap/FetchAndAdd applies its effect exactly once — callers
// need no idempotence of their own, only tolerance of the added latency.
// SetFaults is the one call that arms a plan: the same injector prices the
// plan's link windows into every remote transfer and atomic, and its
// stragglers' ranks are slowed from the start.
// With no injector armed every fault path is a single nil-check and the
// charged costs are bit-identical to the fault-free model (pinned by the
// golden digest and an allocs test).
package rma

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ityr/internal/fault"
	"ityr/internal/netmodel"
	"ityr/internal/sim"
	"ityr/internal/trace"
)

// Typed validation and failure errors. Panics raised by window ops wrap
// these, so both errors.Is on a CheckAccess result and a recover() at a
// test boundary can classify them.
var (
	// ErrRankOutOfRange reports a target rank outside the communicator.
	ErrRankOutOfRange = errors.New("rma: target rank out of range")
	// ErrOutOfRange reports a byte range outside the target's segment.
	ErrOutOfRange = errors.New("rma: access outside window segment")
	// ErrRetriesExhausted reports an op that kept failing past the fault
	// fail-stop bound, fault.MaxAttempts.
	ErrRetriesExhausted = errors.New("rma: retries exhausted")
)

// Comm is a communicator over a fixed set of ranks.
type Comm struct {
	eng *sim.Engine
	net netmodel.Params

	// ranks is one contiguous slab rather than n separate heap objects:
	// at paper scale (16K+ ranks) per-rank allocations dominate setup cost
	// and fragment the heap, so endpoints are indexed, not pointer-chased.
	ranks []Rank

	inj *fault.Injector // nil = no fault injection
	rec *trace.Recorder // nil = record nothing

	// Barrier state: per-rank virtual arrival times and the number of
	// ranks that have arrived at the current episode.
	barSlots   []sim.Time
	barArrived int

	barriers uint64 // completed episodes

	// nwins numbers windows in creation order; the resulting IDs give
	// callers a deterministic sort key (sorting by *Win pointer would depend
	// on the host allocator).
	nwins int
}

// New creates a communicator with n ranks on engine e using network model p.
// Setup is O(n) in both time and memory: a rank's completion state is two
// times (its NIC watermark and its latest outstanding completion), whatever
// it talks to, because the one completion wait is Flush — all outstanding
// ops at once, like MPI_Win_flush_all.
func New(e *sim.Engine, n int, p netmodel.Params) *Comm {
	c := &Comm{eng: e, net: p, barSlots: make([]sim.Time, n)}
	c.ranks = make([]Rank, n)
	for i := range c.ranks {
		c.ranks[i].id = i
		c.ranks[i].c = c
	}
	return c
}

// SetFaults arms the injector's whole plan: one-sided ops may transiently
// fail and retry, remote transfers and atomics pay the link windows'
// extra, and each straggler's rank is slowed for the whole run. Call before the simulation starts; a nil
// injector (the default) keeps every fault path to a single nil-check.
func (c *Comm) SetFaults(in *fault.Injector) {
	c.inj = in
	if in == nil {
		return
	}
	for _, s := range in.Plan().Stragglers {
		if s.Rank >= 0 && s.Rank < len(c.ranks) {
			c.ranks[s.Rank].SetSlowdown(s.Num, s.Den)
		}
	}
}

// SetRecorder attaches the run's recorder, to which retries, one-sided
// ops and flush/barrier waits are reported. Call it
// before building the layers above: pgas.New and uth.NewSched take the
// recorder from here. Recording only reads the virtual clock, so schedules
// are bit-identical with or without one; nil (the default) records nothing.
func (c *Comm) SetRecorder(rec *trace.Recorder) { c.rec = rec }

// Recorder returns the attached recorder (nil when none is).
func (c *Comm) Recorder() *trace.Recorder { return c.rec }

// RetriesByRank returns a copy of the per-origin-rank retry counts.
func (c *Comm) RetriesByRank() []uint64 {
	out := make([]uint64, len(c.ranks))
	for i := range c.ranks {
		out[i] = c.ranks[i].retries
	}
	return out
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return len(c.ranks) }

// Net returns the network parameters, in place: callers read them and
// must not modify them.
func (c *Comm) Net() *netmodel.Params { return &c.net }

// Engine returns the simulation engine.
func (c *Comm) Engine() *sim.Engine { return c.eng }

// Rank returns rank i.
func (c *Comm) Rank(i int) *Rank { return &c.ranks[i] }

// Stats reports cumulative one-sided traffic.
type Stats struct {
	GetOps, PutOps, AtomicOps uint64
	GetBytes, PutBytes        uint64
	FlushWaits                uint64 // flushes that actually waited on outstanding ops
	Barriers                  uint64 // completed barrier episodes
	Retries                   uint64 // transient failures retried (fault injection)
	RetryNs                   uint64 // virtual time lost to retry timeouts + backoff
}

// Stats returns cumulative traffic counters: the sum of every rank's
// per-rank counters.
func (c *Comm) Stats() Stats {
	s := Stats{Barriers: c.barriers}
	for i := range c.ranks {
		r := &c.ranks[i]
		s.GetOps += r.getOps
		s.PutOps += r.putOps
		s.AtomicOps += r.atomicOps
		s.GetBytes += r.getBytes
		s.PutBytes += r.putBytes
		s.FlushWaits += r.flushWaits
		s.Retries += r.retries
		s.RetryNs += r.retryNs
	}
	return s
}

// Rank is one simulated process's endpoint. Exactly one simulated process
// must drive a given rank (Attach), mirroring Itoyori's one-process-per-core
// design.
//
// # Failure semantics
//
// Every one-sided operation a rank originates (Get, Put, the atomics, and
// the Charge* helpers) first passes through the fault-injection gate. With
// no injector armed the gate is a single nil-check and operations never
// fail. With an injector armed, an operation may fail transiently any
// number of times before it takes effect: each failed attempt charges the
// detection timeout (fault.Timeout) plus a capped, seeded exponential
// backoff to this rank's virtual clock and increments its retry counters,
// and then the operation is re-attempted from scratch. Because failures are always
// injected before the memory effect, the effect of a retried operation is
// applied exactly once — callers never observe a duplicated Put or a
// double-applied FetchAndAdd, and need no idempotence of their own. An
// operation that is still failing after fault.MaxAttempts fail-stops:
// it panics with an error wrapping ErrRetriesExhausted (classify with
// errors.Is, as the simulated equivalent of MPI_ERRORS_ARE_FATAL).
// Validation failures — a rank or byte range no correct program can
// produce — panic with errors wrapping ErrRankOutOfRange or ErrOutOfRange
// instead; CheckAccess performs the same classification without the panic.
//
// All mutable per-operation state (NIC serialization watermark, pending
// completion time, traffic and retry counters) is private to the rank;
// cross-rank synchronization happens only through Barrier.
type Rank struct {
	id   int
	c    *Comm
	proc *sim.Proc

	nicFree sim.Time // when the NIC finishes serializing already-issued messages
	pending sim.Time // completion time of the latest outstanding nonblocking op

	// slowNum/slowDen is the rank's straggler time scale (0 = nominal),
	// propagated to whichever process currently drives the rank.
	slowNum, slowDen int64

	// Per-rank traffic counters (summed by Comm.Stats). Each rank only
	// increments its own, which keeps window ops lock-free under parallel
	// host execution.
	getBytes, putBytes uint64
	getOps, putOps     uint64
	atomicOps          uint64
	flushWaits         uint64
	retries            uint64
	retryNs            uint64
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Comm returns the communicator.
func (r *Rank) Comm() *Comm { return r.c }

// Attach binds the simulated process that drives this rank. It must be
// called before any communication from the rank. The rank's straggler
// scale (if any) follows the binding: a thread migrating onto a slow rank
// slows down, and sheds the scale when it next attaches elsewhere.
func (r *Rank) Attach(p *sim.Proc) {
	r.proc = p
	p.SetTimeScale(r.slowNum, r.slowDen)
}

// SetSlowdown makes every duration charged on this rank advance num/den
// times slower (10/1 = a 10× straggler); num <= 0 restores nominal speed.
func (r *Rank) SetSlowdown(num, den int64) {
	r.slowNum, r.slowDen = num, den
	if r.proc != nil {
		r.proc.SetTimeScale(num, den)
	}
}

// Proc returns the driving process.
func (r *Rank) Proc() *sim.Proc { return r.proc }

// Node returns the node hosting this rank.
func (r *Rank) Node() int { return r.c.net.Node(r.id) }

// retryFaults injects transient failures for a one-sided op from this
// rank to target, per the armed fault plan. Each failed attempt charges
// fault.Timeout plus a capped, seeded exponential backoff, records a
// KRetry span and the retry counters, and tries again. Failures are
// injected before the op's memory effect, so the caller applies its
// effect exactly once. An op still failing after fault.MaxAttempts
// attempts panics with a wrapped ErrRetriesExhausted (fail-stop). Without
// an injector this is a single nil-check.
func (r *Rank) retryFaults(target int) {
	if r.c.inj == nil || target == r.id {
		return
	}
	rt := retry{target: target}
	for {
		wait, failed := r.nextRetry(&rt)
		if !failed {
			return
		}
		r.proc.Advance(wait)
	}
}

// retry is the state of one op's fault-retry loop between two of its
// waits, so that the loop can be driven by a caller that sleeps
// (retryFaults) and by one that may not (AtomicCharge).
type retry struct {
	target  int
	attempt int      // failed attempts so far
	t0      sim.Time // when the wait of the last failed attempt began
}

// nextRetry is the body of the retry loop: called when the op starts and
// again after each wait it returned has been slept, it books the wait just
// over (counters, KRetry span, fail-stop past fault.MaxAttempts), draws the
// next attempt's fate and returns the wait to sleep before trying again, or
// failed == false once an attempt goes through. Callers check for an armed
// injector and a remote target first.
func (r *Rank) nextRetry(rt *retry) (wait sim.Time, failed bool) {
	in := r.c.inj
	now := r.proc.Now()
	if rt.attempt > 0 {
		d := now - rt.t0 // straggler scaling may stretch the wait
		r.retries++
		r.retryNs += uint64(d)
		r.c.rec.Span(r.id, trace.KRetry, rt.t0, d, int64(rt.target), int64(rt.attempt))
		if rt.attempt >= fault.MaxAttempts {
			panic(fmt.Errorf("%w: rank %d op to rank %d failed %d attempts under plan %q",
				ErrRetriesExhausted, r.id, rt.target, rt.attempt, in.Plan().Name))
		}
	}
	if !in.FailRMA(r.id, rt.target) {
		return 0, false
	}
	rt.attempt++
	rt.t0 = now
	return fault.Timeout + in.Backoff(r.id, rt.attempt), true
}

// linkExtra is the extra time the armed plan's link windows add to an op
// from this rank to target issued at now, whose unperturbed wire time is
// base. Without an injector, and for a rank-local op, it is 0 and draws
// nothing.
func (r *Rank) linkExtra(now sim.Time, target int, base sim.Time) sim.Time {
	if r.c.inj == nil || target == r.id {
		return 0
	}
	return r.c.inj.LinkExtra(now, r.id, target, base)
}

// ChargeAtomic charges the full origin-side cost of one remote atomic to
// target: fault-injected retries, then the (possibly perturbed) atomic
// round trip, each sleep of an AtomicCharge taken with Advance. Exported
// for the threading layer, whose steal protocol performs its own deque
// compare-and-swap outside any window.
func (r *Rank) ChargeAtomic(target int) {
	r.proc.Sync()
	c := r.StartAtomic(target)
	for d, done := c.Next(); !done; d, done = c.Next() {
		r.proc.Advance(d)
	}
}

// AtomicCharge is the charge of one remote atomic handed out one sleep at
// a time: the retry waits, the round trip, the retry spans, counters,
// fail-stop and recorder call. ChargeAtomic sleeps each with Advance; a
// caller that may not block — a sim.Proc.AdvanceFunc step, which is how an
// idle worker pays for its steal attempts — takes them as step sleeps.
// Start one with Rank.StartAtomic.
type AtomicCharge struct {
	r      *Rank
	retry  retry
	issued bool // the sleep handed out last was the atomic's round trip
}

// StartAtomic begins the charge of one remote atomic from r to target.
func (r *Rank) StartAtomic(target int) AtomicCharge {
	return AtomicCharge{r: r, retry: retry{target: target}}
}

// Next returns the next duration the rank's process has to sleep, or done
// once the charge is complete. Call it at the instant the charge starts and
// again at the instant each sleep it returned ends.
func (c *AtomicCharge) Next() (d sim.Time, done bool) {
	r := c.r
	if c.issued {
		r.c.rec.RMA(r.id, c.retry.target, trace.OpAtomic, 8)
		return 0, true
	}
	if r.c.inj != nil && c.retry.target != r.id {
		if wait, failed := r.nextRetry(&c.retry); failed {
			return wait, false
		}
	}
	c.issued = true
	d = r.c.net.AtomicTime(r.id, c.retry.target)
	return d + r.linkExtra(r.proc.Now(), c.retry.target, d), false
}

// ChargeTransfer charges the cost of a blocking nbytes transfer from
// target (fault-injected retries, then the perturbed wire time). Exported
// for the threading layer's stack fetch on a successful steal.
func (r *Rank) ChargeTransfer(target, nbytes int) {
	r.proc.Sync()
	r.retryFaults(target)
	d := r.c.net.TransferTime(r.id, target, nbytes)
	r.proc.Advance(d + r.linkExtra(r.proc.Now(), target, d))
	r.c.rec.RMA(r.id, target, trace.OpGet, nbytes)
}

// issue performs a one-sided data transfer to or from target: it moves the
// bytes, copy(dst, src), at the instant the op is issued, then models the
// origin-side cost and NIC serialization; completion time is folded into
// r.pending for the next Flush. One of dst and src is a window segment,
// which other ranks read and write, so the rank's banked charges are taken
// before the copy.
func (r *Rank) issue(target int, dst, src []byte) {
	r.proc.Sync()
	copy(dst, src)
	nbytes := len(src)
	r.retryFaults(target)
	r.proc.Advance(r.c.net.MsgOverhead)
	now := r.proc.Now()
	if target == r.id {
		// Local window access: completes at issue time and never touches
		// the NIC, so it must not occupy the serialization pipeline (a
		// local op squeezed between two remote ops must not delay the
		// second one). It is complete the moment it is issued, so no Flush
		// ever waits on it.
		return
	}
	if r.nicFree < now {
		r.nicFree = now
	}
	ser, wire := r.c.net.Wire(r.id, target, nbytes)
	r.nicFree += ser
	// Link-degradation windows see the whole unperturbed wire occupancy
	// (serialization + latency) as their base.
	wire += r.linkExtra(now, target, ser+wire)
	done := r.nicFree + wire
	if done > r.pending {
		r.pending = done
	}
}

// Flush blocks until all nonblocking operations issued by this rank have
// completed, like MPI_Win_flush_all. The wait is a plain Advance, so when no
// other rank has an event due first it rides the kernel's zero-handoff fast
// path — a flush-heavy rank costs the host nothing per wait. A wait is one
// counted KStall span; a Flush with nothing outstanding is free. It reads
// only the rank's own pending time, so it leaves banked charges banked
// unless it waits (sim.Proc.Advance takes them with the wait).
func (r *Rank) Flush() {
	t0 := r.proc.Now()
	if r.pending > t0 {
		r.flushWaits++
		r.proc.Advance(r.pending - t0)
		r.c.rec.Span(r.id, trace.KStall, t0, r.proc.Now()-t0, 0, 0)
	}
}

// Barrier synchronizes all ranks in the communicator (SPMD regions only).
//
// Every rank records its virtual arrival time and parks; the last arriver
// computes the release instant — the maximum arrival time plus a
// dissemination cost of ceil(log2 n) one-way latencies — and schedules a
// keyed wake for every rank (itself included) at that instant, keyed by
// rank number. The release time and the wake order are therefore pure
// functions of the arrival times: which rank happens to arrive last has no
// observable effect.
func (r *Rank) Barrier() {
	r.proc.Sync()
	c := r.c
	n := len(c.ranks)
	if n == 1 {
		c.barriers++
		return
	}
	arrive := r.proc.Now()
	c.barSlots[r.id] = arrive
	if c.barArrived++; c.barArrived == n {
		rel := sim.Time(0)
		for _, t := range c.barSlots {
			if t > rel {
				rel = t
			}
		}
		steps := 0
		for m := 1; m < n; m *= 2 {
			steps++
		}
		rel += sim.Time(steps) * c.net.Latency
		c.barriers++
		c.barArrived = 0
		for i := range c.ranks {
			r.proc.ScheduleWake(c.ranks[i].proc, rel, uint64(i))
		}
	}
	r.proc.Park()
	r.c.rec.Span(r.id, trace.KBarrier, arrive, r.proc.Now()-arrive, 0, 0)
}

// Win is a one-sided memory window: one segment of bytes per rank. Other
// ranks read and write the segments, so every op that touches one first
// takes the calling rank's banked charges (sim.Proc.Sync; the data
// transfers take them in Rank.issue, right before their copy).
type Win struct {
	c    *Comm
	id   int // creation-order number, a deterministic sort key
	segs [][]byte
}

// ID returns the window's creation-order number within its communicator.
// Windows are created in a deterministic order, so the ID is stable across
// runs and usable as a sort key where a pointer comparison would not be.
func (w *Win) ID() int { return w.id }

// NewWin creates a window where rank i exposes sizes[i] bytes. It is a
// setup-time (SPMD) operation.
//
// All segments are carved from one backing slab: at 16K ranks the
// alternative — one allocation per rank per window — costs tens of
// thousands of small heap objects before the first timestep runs. Each
// segment is a full-slice-expression subslice (capacity pinned to its
// length) so Grow's in-place extension path can never bleed into the next
// rank's bytes; growing past a segment's capacity reallocates just that
// segment, exactly as before.
func (c *Comm) NewWin(sizes []int) *Win {
	if len(sizes) != len(c.ranks) {
		panic(fmt.Sprintf("rma: NewWin got %d sizes for %d ranks", len(sizes), len(c.ranks)))
	}
	w := &Win{c: c, id: c.nwins}
	c.nwins++
	w.segs = make([][]byte, len(sizes))
	total := 0
	for _, s := range sizes {
		total += s
	}
	slab := make([]byte, total)
	off := 0
	for i, s := range sizes {
		w.segs[i] = slab[off : off+s : off+s]
		off += s
	}
	return w
}

// NewUniformWin creates a window with the same segment size on every rank.
func (c *Comm) NewUniformWin(size int) *Win {
	sizes := make([]int, len(c.ranks))
	for i := range sizes {
		sizes[i] = size
	}
	return c.NewWin(sizes)
}

// Seg returns rank i's raw segment. Direct access is only legitimate from
// rank i itself or for setup/verification outside the simulation. Re-fetch
// the segment rather than caching it across a Grow: a beyond-capacity Grow
// reallocates the backing array, after which a cached slice still reads
// the pre-Grow contents but no longer aliases the window.
func (w *Win) Seg(i int) []byte { return w.segs[i] }

// Grow extends rank's segment to at least size bytes, preserving contents —
// the equivalent of MPI_Win_create_dynamic + MPI_Win_attach for a heap that
// grows on demand.
//
// Concurrent-epoch safety: window ops move payload eagerly at issue time,
// so no in-flight transfer ever reads or writes the segment after Grow
// returns — growing mid-flight cannot corrupt an outstanding op. Reads of
// a just-grown segment by other ranks in the same epoch are well-defined
// under the kernel's one-process-at-a-time discipline: either the Grow fits
// within the existing capacity, in which case the segment is extended in
// place and every previously taken slice still aliases the same backing
// array, or the backing array is reallocated. A reallocation at least
// doubles the capacity, so a segment grown in small steps (pgas's
// noncollective heap, which starts at one block) reallocates a logarithmic
// number of times, not rarely; ops that re-resolve the segment through
// Seg — as all window ops do — always see the live array.
func (w *Win) Grow(rank, size int) {
	cur := w.segs[rank]
	if len(cur) >= size {
		return
	}
	if size <= cap(cur) {
		w.segs[rank] = cur[:size]
		return
	}
	newCap := 2 * cap(cur)
	if newCap < size {
		newCap = size
	}
	ns := make([]byte, size, newCap)
	copy(ns, cur)
	w.segs[rank] = ns
}

// CheckAccess validates a window access without performing it, returning
// nil or an error wrapping ErrRankOutOfRange / ErrOutOfRange (test with
// errors.Is). The window ops call it internally and panic with the
// returned error: an invalid access is a programmer error by the time it
// reaches this layer (pgas validates user input first), but the typed
// value keeps the failure classifiable.
func (w *Win) CheckAccess(target, off, n int) error {
	if target < 0 || target >= len(w.segs) {
		return fmt.Errorf("%w: rank %d of %d", ErrRankOutOfRange, target, len(w.segs))
	}
	if off < 0 || n < 0 || off+n > len(w.segs[target]) {
		return fmt.Errorf("%w: [%d,%d) in %d-byte segment on rank %d",
			ErrOutOfRange, off, off+n, len(w.segs[target]), target)
	}
	return nil
}

func (w *Win) check(target, off, n int) {
	if err := w.CheckAccess(target, off, n); err != nil {
		panic(err)
	}
}

// Get starts a nonblocking read of len(dst) bytes from target's segment at
// off into dst. The data is guaranteed valid after the next Flush.
func (w *Win) Get(r *Rank, target, off int, dst []byte) {
	w.check(target, off, len(dst))
	r.issue(target, dst, w.segs[target][off:off+len(dst)])
	r.getOps++
	r.getBytes += uint64(len(dst))
	r.c.rec.RMA(r.id, target, trace.OpGet, len(dst))
}

// Put starts a nonblocking write of src into target's segment at off.
// Completion (remote visibility) is guaranteed after the next Flush.
func (w *Win) Put(r *Rank, src []byte, target, off int) {
	w.check(target, off, len(src))
	r.issue(target, w.segs[target][off:off+len(src)], src)
	r.putOps++
	r.putBytes += uint64(len(src))
	r.c.rec.RMA(r.id, target, trace.OpPut, len(src))
}

// GetUint64 is a blocking 8-byte read (issue + flush), as used for polling
// remote scalars such as epochs.
func (w *Win) GetUint64(r *Rank, target, off int) uint64 {
	w.check(target, off, 8)
	var b [8]byte
	r.issue(target, b[:], w.segs[target][off:off+8])
	v := binary.LittleEndian.Uint64(b[:])
	r.c.rec.RMA(r.id, target, trace.OpGet, 8)
	r.Flush()
	return v
}

// PutUint64 is a nonblocking 8-byte write.
func (w *Win) PutUint64(r *Rank, v uint64, target, off int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.Put(r, b[:], target, off)
}

// LocalUint64 reads an 8-byte value from the rank's own segment without
// any communication cost (local variables readable thanks to
// MPI_WIN_UNIFIED, as exploited by the lazy-release polling path).
func (w *Win) LocalUint64(r *Rank, off int) uint64 {
	r.proc.Sync()
	w.check(r.id, off, 8)
	return binary.LittleEndian.Uint64(w.segs[r.id][off:])
}

// StoreLocalUint64 writes an 8-byte value into the rank's own segment.
func (w *Win) StoreLocalUint64(r *Rank, v uint64, off int) {
	r.proc.Sync()
	w.check(r.id, off, 8)
	binary.LittleEndian.PutUint64(w.segs[r.id][off:], v)
}

// CompareAndSwap atomically replaces the uint64 at (target, off) with new if
// it equals old, returning the previous value. Blocking, like an RDMA
// atomic followed by a flush.
func (w *Win) CompareAndSwap(r *Rank, target, off int, old, new uint64) uint64 {
	r.proc.Sync()
	w.check(target, off, 8)
	r.ChargeAtomic(target)
	prev := binary.LittleEndian.Uint64(w.segs[target][off:])
	if prev == old {
		binary.LittleEndian.PutUint64(w.segs[target][off:], new)
	}
	r.atomicOps++
	return prev
}

// FetchAndAdd atomically adds delta to the uint64 at (target, off) and
// returns the previous value. Blocking.
func (w *Win) FetchAndAdd(r *Rank, target, off int, delta uint64) uint64 {
	r.proc.Sync()
	w.check(target, off, 8)
	r.ChargeAtomic(target)
	prev := binary.LittleEndian.Uint64(w.segs[target][off:])
	binary.LittleEndian.PutUint64(w.segs[target][off:], prev+delta)
	r.atomicOps++
	return prev
}

// MaxUint64 atomically raises the value at (target, off) to at least v,
// emulating MPI_Fetch_and_op(MPI_MAX) with a compare-and-swap loop as the
// paper does (footnote 6). It returns the value observed before the update.
func (w *Win) MaxUint64(r *Rank, target, off int, v uint64) uint64 {
	r.proc.Sync()
	for {
		cur := binary.LittleEndian.Uint64(w.segs[target][off:])
		if cur >= v {
			r.ChargeAtomic(target)
			return cur
		}
		if prev := w.CompareAndSwap(r, target, off, cur, v); prev == cur {
			return prev
		}
	}
}

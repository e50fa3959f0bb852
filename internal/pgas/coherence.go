package pgas

import (
	"ityr/internal/sim"
	"ityr/internal/trace"
)

// Epoch-window layout: 16 bytes per rank.
const (
	offCurrentEpoch = 0
	offRequestEpoch = 8
)

// CurrentEpoch returns this rank's write-back epoch (Fig. 6 currentEpoch)
// as its window publishes it to remote readers. The owner's own protocol
// reads its copy instead (EpochState), which always equals it.
func (l *Local) CurrentEpoch() uint64 {
	return l.space.epochWin.LocalUint64(l.rank, offCurrentEpoch)
}

// EpochState returns the owner's copy of currentEpoch and owed, the
// highest handler epoch ReleaseLazy has handed out. A rank with
// owed <= epoch owes no write-back and answers PollPending from these two
// words alone.
func (l *Local) EpochState() (epoch, owed uint64) { return l.epoch, l.owed }

// requested reports whether a write-back has been requested of this rank
// that it has not done (Fig. 6: currentEpoch < requestEpoch). The answer
// comes from the owner's own state while owed <= epoch: every requestEpoch
// a remote MaxUint64 can store is a handler epoch this rank handed out, so
// requestEpoch <= owed <= epoch, and the test is false at whatever instant
// the window would be read. Neither word changes while the owner's charges
// are banked (only the owner hands out handlers and advances its epoch),
// so that answer needs no Sync. Only a rank that owes a write-back reads
// its window's requestEpoch, and takes its bank to do so.
func (l *Local) requested() bool {
	return l.owed > l.epoch && l.epoch < l.space.epochWin.LocalUint64(l.rank, offRequestEpoch)
}

// writeBackAll writes every dirty region of every cache block to its home,
// then advances the epoch. Called for release fences, lazy-release polls,
// and cache-pressure flushes; the pass is reported as one span of kind k
// (KRelease with its fence-site arg, KWriteBackAll or KLazyWriteBackAll).
// The dirty regions are shipped as merged per-home Puts and waited for
// with one Flush (batch.go). The epoch advances if data was written or a
// write-back was requested.
func (l *Local) writeBackAll(k trace.Kind, arg int64) {
	t0 := l.rank.Proc().Now()
	for _, cb := range l.cache.DirtyBlocks() {
		for _, e := range cb.Dirty.Entries() {
			l.gatherRun(cb, e.Interval)
		}
	}
	wrote := len(l.wbRuns) > 0
	l.flushRuns()
	// No explicit validator hook here: putRuns already marked every
	// flushed interval home-visible at its Put's copy instant, which is
	// all the happens-before ledger needs from a release.
	if wrote || l.requested() {
		l.epoch++
		l.space.epochWin.StoreLocalUint64(l.rank, l.epoch, offCurrentEpoch)
		l.rank.Proc().Charge(costEpoch)
	}
	l.space.rec.Span(l.rank.ID(), k, t0, l.rank.Proc().Now()-t0, arg, 0)
}

// ReleaseFence executes an eager release fence (§4.4): all dirty data is
// written back to its home before the fence returns. Under NoCache and
// WriteThrough there is never pending dirty data, so this is (nearly) free.
func (l *Local) ReleaseFence() { l.ReleaseFenceAt(0) }

// ReleaseFenceAt is ReleaseFence tagged with the fork-join site that owes
// it, which travels as the KRelease span's Arg: 0 for a join suspension or
// region exit (Release #3 of Fig. 5), 1 for the completion of a child whose
// parent's continuation was stolen (Release #2).
func (l *Local) ReleaseFenceAt(site int64) {
	if l.space.cfg.Policy == NoCache {
		// No cache means nothing to flush (uncached checkins already wrote
		// home, and the validator marked them home-visible there): the
		// fence is an instant.
		l.space.rec.Instant(l.rank.ID(), trace.KRelease, l.rank.Proc().Now(), site, 0)
		return
	}
	l.writeBackAll(trace.KRelease, site)
}

// ReleaseLazy is the fork-time release of Fig. 6 (ReleaseLazy): instead of
// writing back, it returns a handler naming the epoch whose completion will
// prove this rank's dirty data reached its home. If the cache is clean the
// handler is Unneeded. The handler's epoch becomes owed: no remote rank
// can request more of this rank than it has handed out.
func (l *Local) ReleaseLazy() ReleaseHandler {
	if l.space.cfg.Policy != WriteBackLazy {
		// Eager policies write back right here (Release #1).
		if l.space.cfg.Policy != NoCache {
			l.writeBackAll(trace.KWriteBackAll, 0)
		}
		return Unneeded
	}
	l.rank.Proc().Charge(costEpoch)
	if !l.cache.HasDirty() {
		return Unneeded
	}
	l.space.Stats.LazyReleases++
	l.owed = l.epoch + 1
	return ReleaseHandler{Rank: l.rank.ID(), Epoch: l.owed, Needed: true}
}

// AcquireWith executes an acquire fence paired with the given release
// handler (Fig. 6 Acquire): it waits until the releaser's epoch reaches the
// handler's epoch — requesting a write-back with a remote atomic max on the
// first poll — and then self-invalidates the local cache. The whole fence
// is reported as one KAcquire span (Arg = the releasing rank).
func (l *Local) AcquireWith(h ReleaseHandler) {
	s := l.space
	t0 := l.rank.Proc().Now()
	if h.Needed && s.cfg.Policy != NoCache {
		if h.Rank == l.rank.ID() {
			// The continuation came back to the releasing rank itself;
			// its dirty data is local, so just complete the write-back.
			if l.epoch < h.Epoch {
				l.writeBackAll(trace.KLazyWriteBackAll, 0)
			}
		} else {
			// Fault-injection audit: this polling loop is the coherence
			// protocol's only remote-atomic sequence, and it stays correct
			// under retried one-sided ops. GetUint64 is a read — re-issuing
			// it only re-samples the epoch, and the loop already tolerates
			// stale values by polling again. MaxUint64 is monotonic: applying
			// it once after injected failures (the RMA layer retries before
			// the memory effect, so effects land exactly once) or even twice
			// would leave requestEpoch at the same max. Retries here only
			// stretch virtual time, which this backoff loop absorbs.
			first := true
			backoff := s.comm.Net().AtomicRTT
			for {
				cur := s.epochWin.GetUint64(l.rank, h.Rank, offCurrentEpoch)
				if cur >= h.Epoch {
					break
				}
				if first {
					s.epochWin.MaxUint64(l.rank, h.Rank, offRequestEpoch, h.Epoch)
					first = false
				}
				l.rank.Proc().Advance(backoff)
				if backoff < 20*sim.Microsecond {
					backoff *= 2
				}
			}
		}
	}
	l.acquired(trace.KAcquire, t0, int64(h.Rank))
}

// AcquireFence executes a plain acquire fence: self-invalidate the cache so
// subsequent checkouts fetch fresh data. Used on thread migration arrival
// when the matching releases were eager, and reported as the KMigrate span.
func (l *Local) AcquireFence() {
	l.acquired(trace.KMigrate, l.rank.Proc().Now(), 0)
}

// acquired completes an acquire fence begun at t0: the cache
// self-invalidates, the fence is reported as one span of kind k, and the
// validator records its completion — after any poll loop, so a lazy
// write-back the acquire waited for was homed at an earlier virtual time.
func (l *Local) acquired(k trace.Kind, t0 sim.Time, arg int64) {
	l.invalidateAll()
	l.space.rec.Span(l.rank.ID(), k, t0, l.rank.Proc().Now()-t0, arg, 0)
	if v := l.validator(); v != nil {
		v.onAcquire(l.rank.ID(), l.rank.Proc().Now())
	}
}

func (l *Local) invalidateAll() {
	if l.space.cfg.Policy == NoCache {
		return
	}
	// The fence protocol guarantees a worker's cache is clean whenever an
	// acquire runs (every suspension/steal path executed a release first).
	// Write back defensively anyway: when the invariant holds this is
	// free, and it makes invalidation safe under any schedule — clearing
	// a dirty region's valid bit would let a later fetch overwrite it.
	if l.cache.HasDirty() {
		l.writeBackAll(trace.KWriteBackAll, 0)
	}
	l.cache.InvalidateAllExceptDirty()
	l.rank.Proc().Advance(costInvalidate)
	l.space.Stats.Invalidations++
}

// Poll is DoReleaseIfReqested of Fig. 6: if another rank requested a
// write-back (requestEpoch > currentEpoch), perform it now. The threading
// layer calls Poll at every fork, join and idle-loop iteration.
func (l *Local) Poll() {
	if l.PollPending() {
		l.writeBackAll(trace.KLazyWriteBackAll, 0)
	}
}

// PollPending reports whether Poll would write back: whether a write-back
// has been requested of this rank that it has not done. It costs no
// virtual time, so an idle worker may ask from engine context, and a rank
// that owes no write-back answers it without taking its bank (requested).
func (l *Local) PollPending() bool {
	return l.space.cfg.Policy == WriteBackLazy && l.requested()
}

// DirtyBytes reports the number of dirty bytes awaiting write-back.
func (l *Local) DirtyBytes() uint64 {
	var n uint64
	for _, cb := range l.cache.DirtyBlocks() {
		n += cb.Dirty.Bytes()
	}
	return n
}

package pgas

import (
	"ityr/internal/region"
	"ityr/internal/sim"
	"ityr/internal/trace"
)

// Epoch-window layout: 16 bytes per rank.
const (
	offCurrentEpoch = 0
	offRequestEpoch = 8
)

// CurrentEpoch returns this rank's write-back epoch (Fig. 6 currentEpoch).
func (l *Local) CurrentEpoch() uint64 {
	return l.space.epochWin.LocalUint64(l.rank, offCurrentEpoch)
}

func (l *Local) requestEpoch() uint64 {
	return l.space.epochWin.LocalUint64(l.rank, offRequestEpoch)
}

// writeBackAll writes every dirty region of every cache block to its home,
// then advances the epoch. Called for release fences, lazy-release polls,
// and cache-pressure flushes; the pass is reported as one span of kind k
// (KRelease with its fence-site arg, KWriteBackAll or KLazyWriteBackAll).
// With Config.CoalesceWriteBack the dirty regions are shipped as merged
// per-home Puts and each written target rank is flushed individually
// (batch.go); otherwise every region is its own Put and one Flush waits on
// everything.
func (l *Local) writeBackAll(k trace.Kind, arg int64) {
	t0 := l.rank.Proc().Now()
	wrote := false
	if l.space.cfg.CoalesceWriteBack {
		wrote = l.writeBackCoalesced()
	} else {
		for _, cb := range l.cache.DirtyBlocks() {
			// Snapshot the intervals: the loop subtracts from the set it
			// walks. Each interval is cleared at its put's copy instant —
			// rma.Put copies host bytes before charging time — so the
			// dirty set lists exactly the bytes not yet sent home at every
			// virtual instant of the pass.
			ivs := append([]region.Interval(nil), cb.Dirty.Intervals()...)
			for _, iv := range ivs {
				cb.Dirty.Subtract(iv)
				l.putDirtyInterval(cb, iv)
				wrote = true
			}
		}
		if wrote {
			l.rank.Flush()
		}
	}
	// No explicit validator hook here: the put paths above already marked
	// every flushed interval home-visible at its put's copy instant, which
	// is all the happens-before ledger needs from a release.
	cur, req := l.CurrentEpoch(), l.requestEpoch()
	if wrote || cur < req {
		l.space.epochWin.StoreLocalUint64(l.rank, cur+1, offCurrentEpoch)
		l.rank.Proc().Advance(costEpoch)
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
// handler is Unneeded.
func (l *Local) ReleaseLazy() ReleaseHandler {
	if l.space.cfg.Policy != WriteBackLazy {
		// Eager policies write back right here (Release #1).
		if l.space.cfg.Policy != NoCache {
			l.writeBackAll(trace.KWriteBackAll, 0)
		}
		return Unneeded
	}
	l.rank.Proc().Advance(costEpoch)
	if !l.cache.HasDirty() {
		return Unneeded
	}
	l.space.Stats.LazyReleases++
	return ReleaseHandler{Rank: l.rank.ID(), Epoch: l.CurrentEpoch() + 1, Needed: true}
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
			if l.CurrentEpoch() < h.Epoch {
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
	l.invalidateAll()
	s.rec.Span(l.rank.ID(), trace.KAcquire, t0, l.rank.Proc().Now()-t0, int64(h.Rank), 0)
	// Record after the poll loop: any lazy write-back this acquire waited
	// for was homed at an earlier virtual time than this completion.
	if v := s.val; v != nil {
		v.onAcquire(l.rank.ID(), l.rank.Proc().Now())
	}
}

// AcquireFence executes a plain acquire fence: self-invalidate the cache so
// subsequent checkouts fetch fresh data. Used on thread migration arrival
// when the matching releases were eager, and reported as the KMigrate span.
func (l *Local) AcquireFence() {
	t0 := l.rank.Proc().Now()
	l.invalidateAll()
	l.space.rec.Span(l.rank.ID(), trace.KMigrate, t0, l.rank.Proc().Now()-t0, 0, 0)
	if v := l.space.val; v != nil {
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
// has been requested of this rank that it has not done. It costs two reads
// of the rank's own window segment and no virtual time, so an idle worker
// may ask from engine context.
func (l *Local) PollPending() bool {
	return l.space.cfg.Policy == WriteBackLazy && l.CurrentEpoch() < l.requestEpoch()
}

// DirtyBytes reports the number of dirty bytes awaiting write-back.
func (l *Local) DirtyBytes() uint64 {
	var n uint64
	for _, cb := range l.cache.DirtyBlocks() {
		n += cb.Dirty.Bytes()
	}
	return n
}

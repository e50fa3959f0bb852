package pgas

// Communication batching for the software cache (Config.CoalesceWriteBack
// and Config.PrefetchBlocks): the paper's observation (§4, Fig. 6) is that
// the checkout/checkin cache wins by turning many fine-grained transfers
// into few large one-sided ops. Two mechanisms implement that here:
//
//   - Write-back coalescing: dirty regions are gathered over all dirty
//     blocks, resolved to (window, home rank, segment offset), and runs
//     that land contiguously in the same home segment — which includes
//     consecutive blocks of the same home, since a home's blocks occupy
//     consecutive segment offsets under every distribution policy — are
//     shipped as a single rma.Put. Holes are never bridged: merging only
//     exactly-adjacent runs writes the same bytes with fewer messages,
//     so simulated time can only improve. Adjacent dirty regions within
//     one block are already merged by region.Set; the gather adds the
//     cross-block dimension. Release fences then flush once per written
//     target rank (rma.FlushRank) instead of waiting on all traffic.
//
//   - Sequential prefetch: when a cache miss extends a run of ascending
//     same-home block accesses, up to PrefetchBlocks lookahead blocks of
//     that home are fetched in one batched rma.Get issued alongside the
//     demand fetch (the checkout's existing flush covers it). Prefetched
//     blocks are unpinned and evict normally; under cache pressure the
//     prefetcher simply stops rather than writing back or evicting
//     anything on behalf of speculation.
//
// Prefetch is additionally gated by a per-rank confidence counter, the
// classic throttle on hardware stream prefetchers: a demand hit on a
// prefetched block earns pfHitCredit, a prefetched block discarded
// unread (evicted or invalidated) costs one, and speculation pauses at
// zero credit. Accuracy depends on geometry — under a block-cyclic
// distribution the same-home lookahead sits nranks blocks away, which
// pays off for long streams and is pure waste for short ones — and the
// counter lets one binary default (prefetch on) serve both: inaccurate
// regimes drain the credit within a few wasted batches and the
// prefetcher goes quiet, while any late hit on a leftover speculative
// block re-opens it for another probe. All bookkeeping is per-rank
// integers, so runs stay deterministic.

import (
	"fmt"
	"sort"

	"ityr/internal/memblock"
	"ityr/internal/region"
	"ityr/internal/rma"
	"ityr/internal/trace"
)

// Prefetch confidence-counter parameters. The initial grant bounds the
// waste a never-accurate workload can incur (a few lookahead batches);
// the hit reward keeps the prefetcher open whenever accuracy stays above
// ~1/(1+pfHitCredit); the cap bounds how long a workload that turns
// inaccurate keeps speculating on past glory.
const (
	pfInitCredit = 4
	pfHitCredit  = 2
	pfMaxCredit  = 64
)

// pfHit credits a demand hit on a prefetched block.
func (l *Local) pfHit() {
	l.space.Batch.PrefetchHits++
	if l.pfCredit += pfHitCredit; l.pfCredit > pfMaxCredit {
		l.pfCredit = pfMaxCredit
	}
}

// pfMiss debits a prefetched block discarded before any demand access.
func (l *Local) pfMiss() {
	l.space.Batch.PrefetchMisses++
	if l.pfCredit > 0 {
		l.pfCredit--
	}
}

// wbRun is one contiguous dirty byte run resolved to its home location.
// iv is a snapshot of the interval gathered: exactly it is flushed and
// cleared.
type wbRun struct {
	cb     *memblock.Block
	iv     region.Interval // global addresses
	win    *rma.Win
	winID  int // win.ID(): the deterministic sort key
	home   int
	segOff int // iv.Lo's offset in the home's window segment
}

// gatherRun records one dirty interval of cb for the next issueRuns.
func (l *Local) gatherRun(cb *memblock.Block, iv region.Interval) {
	s := l.space
	bs := uint64(s.cfg.BlockSize)
	g0 := Addr(uint64(cb.ID) * bs)
	a, err := s.findAlloc(Addr(iv.Lo), iv.Len())
	if err != nil {
		panic(fmt.Sprintf("pgas: dirty interval %v outside allocations: %v", iv, err))
	}
	home, win, segOff0 := s.blockHome(a, g0)
	l.wbRuns = append(l.wbRuns, wbRun{
		cb: cb, iv: iv, win: win, winID: win.ID(), home: home,
		segOff: segOff0 + int(iv.Lo-uint64(g0)),
	})
}

// issueRuns sorts the gathered runs by (window, home, segment offset),
// merges exactly-adjacent runs into single Puts, and issues them. It
// returns the sorted, deduplicated list of written target ranks (aliasing
// internal scratch — consume before the next gather). The runs themselves
// are left in place so the caller can clear the flushed intervals.
func (l *Local) issueRuns() []int {
	runs := l.wbRuns
	sort.Slice(runs, func(i, j int) bool {
		if runs[i].winID != runs[j].winID {
			return runs[i].winID < runs[j].winID
		}
		if runs[i].home != runs[j].home {
			return runs[i].home < runs[j].home
		}
		return runs[i].segOff < runs[j].segOff
	})
	l.wbTargets = l.wbTargets[:0]
	for i := 0; i < len(runs); {
		j, n := i+1, int(runs[i].iv.Len())
		for j < len(runs) && runs[j].winID == runs[i].winID &&
			runs[j].home == runs[i].home && runs[j].segOff == runs[i].segOff+n {
			n += int(runs[j].iv.Len())
			j++
		}
		l.putRuns(runs[i:j], n)
		l.wbTargets = append(l.wbTargets, runs[i].home)
		i = j
	}
	sort.Ints(l.wbTargets)
	out := l.wbTargets[:0]
	for _, t := range l.wbTargets {
		if len(out) == 0 || out[len(out)-1] != t {
			out = append(out, t)
		}
	}
	l.wbTargets = out
	return out
}

// putRuns writes one merged group of adjacent runs (n total bytes) home as
// a single nonblocking Put. Multi-run groups stage through a reusable
// host-side buffer; the copy is bookkeeping, not simulated work. Each
// run's dirty interval is cleared here, at the Put's copy instant (rma.Put
// copies host bytes before charging time), so the dirty set lists exactly
// the bytes not yet sent home at every virtual instant of the pass.
func (l *Local) putRuns(group []wbRun, n int) {
	s := l.space
	bs := uint64(s.cfg.BlockSize)
	win := group[0].win
	var src []byte
	if len(group) == 1 {
		r := group[0]
		b0 := uint64(r.cb.ID) * bs
		src = r.cb.Data[r.iv.Lo-b0 : r.iv.Hi-b0]
	} else {
		if cap(l.wbStage) < n {
			l.wbStage = make([]byte, n)
		}
		src = l.wbStage[:n]
		off := 0
		for _, r := range group {
			b0 := uint64(r.cb.ID) * bs
			off += copy(src[off:], r.cb.Data[r.iv.Lo-b0:r.iv.Hi-b0])
		}
		s.Batch.WBRunsMerged += uint64(len(group) - 1)
		s.Batch.WBCoalescedBytes += uint64(n)
	}
	for _, r := range group {
		r.cb.Dirty.Subtract(r.iv)
	}
	win.Put(l.rank, src, group[0].home, group[0].segOff)
	s.Stats.WriteBackOps++
	s.Stats.WriteBackBytes += uint64(n)
	s.rec.Instant(l.rank.ID(), trace.KWriteBack, l.rank.Proc().Now(), int64(n), 0)
	// Home-visible from the Put's copy instant (validator ledger).
	if v := s.val; v != nil {
		now := l.rank.Proc().Now()
		for _, r := range group {
			v.markHomed(r.iv.Lo, r.iv.Hi, now)
		}
	}
}

// resetRuns retires the gathered runs, dropping block references.
func (l *Local) resetRuns() {
	for i := range l.wbRuns {
		l.wbRuns[i] = wbRun{}
	}
	l.wbRuns = l.wbRuns[:0]
}

// writeBackCoalesced is the batched body of writeBackAll: it gathers every
// dirty interval of every cache block, issues them as coalesced Puts, and
// flushes each written target rank. Reports whether anything was written.
func (l *Local) writeBackCoalesced() bool {
	for _, cb := range l.cache.DirtyBlocks() {
		for _, iv := range cb.Dirty.Intervals() {
			l.gatherRun(cb, iv)
		}
	}
	if len(l.wbRuns) == 0 {
		return false
	}
	// putRuns clears each run's dirty interval at its Put's copy instant.
	targets := l.issueRuns()
	for _, t := range targets {
		l.rank.FlushRank(t)
	}
	l.resetRuns()
	return true
}

// pfBlock is one cache block filled by a batched prefetch Get.
type pfBlock struct {
	cb *memblock.Block
	n  uint64
}

// prefetch speculatively fetches up to Config.PrefetchBlocks lookahead
// blocks of the sequential run ending at the just-missed block g0 — all
// from homeRank, whose blocks occupy consecutive window-segment offsets —
// in a single batched Get. The Get completes under the calling checkout's
// flush. The lookahead is clamped at the end of the allocation (and, for
// noncollective memory, at the currently grown segment), stops at
// distribution-chunk boundaries, at already-cached blocks (keeping the Get
// contiguous), and at any cache-pressure Acquire failure.
func (l *Local) prefetch(a *allocation, g0 Addr, homeRank int, win *rma.Win, segOff0 int) {
	s := l.space
	bs := uint64(s.cfg.BlockSize)
	stride := Addr(bs)
	if a.base < ncBase && a.policy == BlockCyclicDist {
		stride = Addr(a.nranks * bs)
	}
	limit := a.end()
	if a.base >= ncBase {
		if ncLimit := a.base + Addr(len(win.Seg(homeRank))); ncLimit < limit {
			limit = ncLimit
		}
	}
	l.pfBlks = l.pfBlks[:0]
	total := 0
	for k := 1; k <= s.cfg.PrefetchBlocks; k++ {
		g := g0 + Addr(uint64(k))*stride
		if g >= limit {
			break // clamped at the end of the space
		}
		if a.base < ncBase {
			if hr, _ := a.homeOf(g, bs); hr != homeRank {
				break // distribution chunk boundary: the run leaves this home
			}
		}
		hi := g + Addr(bs)
		if hi > limit {
			hi = limit
		}
		bid := int64(uint64(g) / bs)
		if l.cache.Peek(bid) != nil {
			break // already cached: keep the batched Get contiguous
		}
		cb, evicted, err := l.cache.Acquire(bid)
		if err != nil {
			break // cache pressure: speculation never forces a write-back
		}
		if evicted != nil {
			if cb.Prefetched {
				l.pfMiss()
			}
			l.rank.Proc().Advance(costMmap)
			s.Stats.Mmaps++
			s.Stats.Evictions++
			s.rec.Instant(l.rank.ID(), trace.KEviction, l.rank.Proc().Now(), evicted.ID, 0)
		}
		if l.cache.SetMapped(cb, true) {
			l.rank.Proc().Advance(costMmap)
			s.Stats.Mmaps++
		}
		l.rank.Proc().Advance(costCheckoutBlock)
		cb.Prefetched = true
		cb.Valid.Add(region.Interval{Lo: uint64(g), Hi: uint64(hi)})
		l.pfBlks = append(l.pfBlks, pfBlock{cb: cb, n: uint64(hi - g)})
		total += int(hi - g)
		if hi < g+Addr(bs) {
			break // partial tail block ends the run
		}
	}
	if total == 0 {
		return
	}
	if cap(l.pfStage) < total {
		l.pfStage = make([]byte, total)
	}
	stage := l.pfStage[:total]
	win.Get(l.rank, homeRank, segOff0+int(bs), stage)
	off := 0
	for _, pb := range l.pfBlks {
		off += copy(pb.cb.Data[:pb.n], stage[off:])
	}
	s.Batch.PrefetchOps++
	s.Batch.PrefetchedBlocks += uint64(len(l.pfBlks))
	s.Batch.PrefetchBytes += uint64(total)
	s.rec.Instant(l.rank.ID(), trace.KPrefetch, l.rank.Proc().Now(), int64(total), 0)
}

package pgas

// Write-back coalescing, the software cache's one write-back path: the
// paper's observation (§4, Fig. 6) is that the checkout/checkin cache
// wins by turning many fine-grained transfers into few large one-sided ops.
// Dirty regions are gathered over all dirty blocks (or, under
// write-through, over one checkin's pieces), resolved to (window,
// home rank, segment offset), and runs that land contiguously in the same
// home segment — which includes consecutive blocks of the same home, since
// a home's blocks occupy consecutive segment offsets under every
// distribution policy — are shipped as a single rma.Put. Holes are never
// bridged: merging only exactly-adjacent runs writes the same bytes a
// Put per run would, in fewer messages. Adjacent dirty regions within one
// block are already merged by region.Set; the gather adds the cross-block
// dimension. The pass then waits once, with rma.Flush (MPI_Win_flush_all),
// on everything outstanding. A checkout flushes its Gets before it returns,
// so that is the Puts just issued, and the wait ends when the last written
// home is done (a cache-pressure pass inside a multi-block checkout also
// waits for that checkout's Gets, which the checkout waits for anyway).

import (
	"fmt"
	"sort"

	"ityr/internal/memblock"
	"ityr/internal/region"
	"ityr/internal/rma"
	"ityr/internal/trace"
)

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

// gatherRun records one dirty interval of cb for the next flushRuns.
func (l *Local) gatherRun(cb *memblock.Block, iv region.Interval) {
	s := l.space
	bs := uint64(s.cfg.BlockSize)
	g0 := Addr(uint64(cb.ID) * bs)
	a, err := s.findAlloc(Addr(iv.Lo), iv.Len())
	if err != nil {
		panic(fmt.Sprintf("pgas: dirty interval %v outside allocations: %v", iv, err))
	}
	home, segOff0 := a.homeOf(g0, bs)
	l.wbRuns = append(l.wbRuns, wbRun{
		cb: cb, iv: iv, win: a.win, winID: a.win.ID(), home: home,
		segOff: segOff0 + int(iv.Lo-uint64(g0)),
	})
}

// issueRuns sorts the gathered runs by (window, home, segment offset),
// merges exactly-adjacent runs into single Puts, and issues them. The runs
// themselves are left in place for the caller to retire.
func (l *Local) issueRuns() {
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
	for i := 0; i < len(runs); {
		j, n := i+1, int(runs[i].iv.Len())
		for j < len(runs) && runs[j].winID == runs[i].winID &&
			runs[j].home == runs[i].home && runs[j].segOff == runs[i].segOff+n {
			n += int(runs[j].iv.Len())
			j++
		}
		l.putRuns(runs[i:j], n)
		i = j
	}
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
	if v := l.validator(); v != nil {
		now := l.rank.Proc().Now()
		for _, r := range group {
			v.markHomed(r.iv.Lo, r.iv.Hi, now)
		}
	}
}

// flushRuns issues the gathered runs as coalesced Puts, waits for them with
// one Flush, and retires the runs, dropping block references. With nothing
// gathered it costs nothing.
func (l *Local) flushRuns() {
	if len(l.wbRuns) == 0 {
		return
	}
	l.issueRuns()
	l.rank.Flush()
	clear(l.wbRuns)
	l.wbRuns = l.wbRuns[:0]
}

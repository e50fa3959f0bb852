package pgas

import (
	"fmt"
	"unsafe"

	"ityr/internal/memblock"
	"ityr/internal/region"
	"ityr/internal/rma"
	"ityr/internal/sim"
	"ityr/internal/trace"
)

// alignedBytes returns an n-byte slice whose backing array is 8-byte
// aligned, so checkout views can be reinterpreted as typed slices.
func alignedBytes(n uint64) []byte {
	if n == 0 {
		return nil
	}
	w := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), n)
}

// Local is one rank's handle on the global address space. All cache state
// (cache blocks, home-block mappings, outstanding checkouts, epochs) is
// private to the rank, mirroring Itoyori's one-process-per-core design.
type Local struct {
	space *Space
	rank  *rma.Rank
	cache *memblock.Table
	home  *memblock.Table

	outstanding []checkoutRec

	// viewPool and piecePool recycle checkout view buffers and piece lists
	// retired by Checkin. Purely a host-allocation optimization: pooling
	// never touches simulated time, and a view's contents are either
	// undefined (Write) or fully overwritten from backing (Read modes), so
	// reuse is invisible to callers who honour the checkout contract.
	viewPool  [][]byte
	piecePool [][]piece

	// Write-back coalescing scratch (Config.CoalesceWriteBack): gathered
	// dirty runs, the staging buffer merged multi-run Puts ship from, and
	// the written-target list a release flushes rank by rank. Reused
	// across write-backs; all host-side bookkeeping.
	wbRuns    []wbRun
	wbStage   []byte
	wbTargets []int

	// ProfCategory, when non-empty, redirects the time of subsequent
	// checkout/checkin calls to the named profiler category instead of
	// "Checkout"/"Checkin". The paper uses this to attribute the
	// single-element loads of Cilksort's binary search to "Get".
	ProfCategory string

	// SDC instrumentation (silent-data-corruption subsystem), driven by
	// the runtime's Protected wrapper around fork-free task segments.
	// While sdcDigestArmed, every view this rank commits at a written
	// checkin is folded into a streaming FNV-1a digest — the cheap
	// result fingerprint task replication compares. While sdcFlipArmed,
	// one deferred bit flip is applied to the first such view before it
	// commits, corrupting memory the way a real SDC would. Both are
	// host-side only (no simulated time), and the unarmed hot path is
	// two bool checks.
	sdcDigestArmed bool
	sdcDigest      uint64
	sdcFlipArmed   bool
	sdcFlipSel     uint64
	sdcFlipDone    bool
}

// FNV-1a parameters for the SDC write digest.
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// SdcArmDigest starts streaming a digest over the bytes committed by this
// rank's subsequent written checkins.
func (l *Local) SdcArmDigest() {
	l.sdcDigestArmed = true
	l.sdcDigest = fnvOffset64
}

// SdcTakeDigest disarms the write digest and returns its value.
func (l *Local) SdcTakeDigest() uint64 {
	l.sdcDigestArmed = false
	return l.sdcDigest
}

// SdcArmFlip arms one deferred bit flip: the first view committed by a
// subsequent written checkin has bit (sel mod its size) flipped before it
// reaches backing memory.
func (l *Local) SdcArmFlip(sel uint64) {
	l.sdcFlipArmed = true
	l.sdcFlipSel = sel
	l.sdcFlipDone = false
}

// SdcTakeFlip disarms the deferred flip and reports whether it was
// applied (false means the protected segment committed no writes, so the
// caller must corrupt the task's return value instead).
func (l *Local) SdcTakeFlip() bool {
	l.sdcFlipArmed = false
	return l.sdcFlipDone
}

// sdcOnCheckin applies the armed deferred flip and/or folds the committed
// view into the streaming digest. Only called for non-empty written
// checkins while armed.
func (l *Local) sdcOnCheckin(view []byte) {
	if l.sdcFlipArmed && !l.sdcFlipDone && len(view) > 0 {
		bit := l.sdcFlipSel % uint64(len(view)*8)
		view[bit>>3] ^= 1 << (bit & 7)
		l.sdcFlipDone = true
	}
	if l.sdcDigestArmed {
		d := l.sdcDigest
		for _, b := range view {
			d = (d ^ uint64(b)) * fnvPrime64
		}
		l.sdcDigest = d
	}
}

// poolLimit bounds the per-rank recycling pools.
const poolLimit = 32

// getView returns an n-byte 8-aligned buffer, reusing a retired view when
// one is large enough.
func (l *Local) getView(n uint64) []byte {
	for i := len(l.viewPool) - 1; i >= 0; i-- {
		if b := l.viewPool[i]; uint64(cap(b)) >= n {
			last := len(l.viewPool) - 1
			l.viewPool[i] = l.viewPool[last]
			l.viewPool[last] = nil
			l.viewPool = l.viewPool[:last]
			return b[:n]
		}
	}
	return alignedBytes(n)
}

// putView retires a view buffer for reuse.
func (l *Local) putView(b []byte) {
	if cap(b) == 0 || len(l.viewPool) >= poolLimit {
		return
	}
	l.viewPool = append(l.viewPool, b[:0])
}

// getPieces returns an empty piece list with recycled capacity.
func (l *Local) getPieces() []piece {
	if n := len(l.piecePool); n > 0 {
		p := l.piecePool[n-1]
		l.piecePool[n-1] = nil
		l.piecePool = l.piecePool[:n-1]
		return p
	}
	return nil
}

// putPieces retires a piece list for reuse, dropping block references.
func (l *Local) putPieces(p []piece) {
	if cap(p) == 0 || len(l.piecePool) >= poolLimit {
		return
	}
	clear(p[:cap(p)])
	l.piecePool = append(l.piecePool, p[:0])
}

// piece describes where one contiguous part of a checked-out region lives.
type piece struct {
	g Addr // global address of the piece start
	n int  // length in bytes

	// Cache path: cb holds the bytes at cb.Data[g - blockBase].
	cb        *memblock.Block
	blockBase Addr

	// Home path: the bytes live in win.Seg(homeRank)[segOff:].
	hb       *memblock.Block
	homeRank int
	win      *rma.Win
	segOff   int
}

type checkoutRec struct {
	addr   Addr
	size   uint64
	mode   Mode
	view   []byte
	pieces []piece
}

// Rank returns the underlying communication endpoint.
func (l *Local) Rank() *rma.Rank { return l.rank }

// Space returns the global address space.
func (l *Local) Space() *Space { return l.space }

// blockHome resolves the home of the block starting at g0 within a.
func (s *Space) blockHome(a *allocation, g0 Addr) (rank int, win *rma.Win, off int) {
	if a.base >= ncBase {
		return int((a.base - ncBase) / ncSpan), a.win, int(g0 - a.base)
	}
	r, o := a.homeOf(g0, uint64(s.cfg.BlockSize))
	return r, a.win, o
}

// span reports the Checkout or Checkin call that began at t0 as one span
// of kind k, its category total redirected to ProfCategory when set.
func (l *Local) span(k trace.Kind, t0 sim.Time, size uint64) {
	l.space.rec.SpanAs(l.ProfCategory, l.rank.ID(), k, t0, l.rank.Proc().Now()-t0, int64(size), 0)
}

// hit counts n requested bytes found valid in the cache or home-local.
func (l *Local) hit(n uint64) { l.space.Stats.HitBytes += n }

// Checkout claims access to the global region [addr, addr+size) in the
// given mode and returns a view of it (§3.3). The view's contents are the
// up-to-date global data for Read and ReadWrite, and undefined for Write.
// Every Checkout must be paired with exactly one Checkin carrying the same
// arguments. Checkout fails with ErrTooMuchCheckout when the region cannot
// be pinned within the fixed-size cache; callers should then split the
// access into smaller chunks.
func (l *Local) Checkout(addr Addr, size uint64, mode Mode) ([]byte, error) {
	s := l.space
	t0 := l.rank.Proc().Now()
	s.Stats.CheckoutCalls++

	if size == 0 {
		l.outstanding = append(l.outstanding, checkoutRec{addr: addr, size: 0, mode: mode})
		return nil, nil
	}

	// Discipline check before any cache state changes: a violating
	// checkout fails fast and leaves caches untouched. Registration of the
	// new access right happens at the success exits below, so failed
	// checkouts (capacity, range) leave no ghost rights behind.
	if v := s.val; v != nil {
		if err := v.onCheckout(l, addr, addr+size, mode); err != nil {
			return nil, err
		}
	}

	if s.cfg.Policy == NoCache {
		// The paper's baseline: checkout/checkin become GET/PUT on a
		// freshly allocated user buffer (§6.1).
		view := l.getView(size)
		if mode != Write {
			if err := l.getInto(addr, view); err != nil {
				return nil, err
			}
		}
		l.outstanding = append(l.outstanding, checkoutRec{addr: addr, size: size, mode: mode, view: view})
		if v := s.val; v != nil {
			v.registerCheckout(l, addr, addr+size, mode, t0)
		}
		l.span(trace.KCheckout, t0, size)
		return view, nil
	}

	a, err := s.findAlloc(addr, size)
	if err != nil {
		return nil, err
	}
	bs := uint64(s.cfg.BlockSize)
	sbs := uint64(s.cfg.SubBlockSize)
	me := l.rank.ID()
	net := s.comm.Net()

	rec := checkoutRec{addr: addr, size: size, mode: mode, pieces: l.getPieces()}
	undo := func() {
		for _, p := range rec.pieces {
			if p.cb != nil {
				p.cb.Ref--
			} else {
				p.hb.Ref--
			}
		}
	}

	first := addr / bs
	last := (addr + size - 1) / bs
	for bid := first; bid <= last; bid++ {
		g0 := Addr(bid * bs)
		req := region.Interval{Lo: uint64(maxAddr(g0, addr)), Hi: uint64(minAddr(g0+Addr(bs), addr+Addr(size)))}
		homeRank, win, segOff0 := s.blockHome(a, g0)
		l.rank.Proc().Advance(costCheckoutBlock)

		if net.SameNode(homeRank, me) {
			// Home path: the block is (intra-node) shared memory, mapped
			// directly into the global view (§4.1). Home blocks are still
			// dynamically mapped and reference-counted (§4.3.2).
			hb, evicted, herr := l.home.Acquire(int64(bid))
			if herr != nil {
				undo()
				return nil, fmt.Errorf("%w: home blocks: %v", ErrTooMuchCheckout, herr)
			}
			if evicted != nil {
				l.rank.Proc().Advance(costMmap) // unmap the evicted mapping
				s.Stats.Mmaps++
			}
			if l.home.SetMapped(hb, true) {
				l.rank.Proc().Advance(costMmap)
				s.Stats.Mmaps++
			}
			hb.Ref++
			l.hit(req.Len())
			rec.pieces = append(rec.pieces, piece{
				g: Addr(req.Lo), n: int(req.Len()),
				hb: hb, homeRank: homeRank, win: win,
				segOff: segOff0 + int(Addr(req.Lo)-g0),
			})
			continue
		}

		// Cache path (Fig. 4).
		cb, err := l.acquireCacheBlock(int64(bid))
		if err != nil {
			undo()
			return nil, err
		}
		cb.Ref++
		if mode == Write {
			cb.Valid.Add(req)
			l.hit(req.Len())
		} else if !cb.Valid.Contains(req) {
			// Fetch missing sub-blocks from the home (Fig. 4 lines 17-21).
			padded := region.Interval{
				Lo: req.Lo / sbs * sbs,
				Hi: (req.Hi + sbs - 1) / sbs * sbs,
			}
			if padded.Lo < uint64(g0) {
				padded.Lo = uint64(g0)
			}
			limit := uint64(g0) + bs
			if ncLimit := uint64(a.base) + uint64(len(win.Seg(homeRank))); a.base >= ncBase && ncLimit < limit {
				limit = ncLimit
			}
			if padded.Hi > limit {
				padded.Hi = limit
			}
			// The next missing interval is resolved against the block's
			// current valid set right before each fetch, so no missing list
			// is built, and marked valid at the copy instant: rma.Get copies
			// host bytes before charging time, so Add-then-Get keeps the
			// valid set exact at every virtual instant of the fetch.
			var fetched uint64
			for {
				m, ok := cb.Valid.FirstMissing(padded)
				if !ok {
					break
				}
				dst := cb.Data[m.Lo-uint64(g0) : m.Hi-uint64(g0)]
				cb.Valid.Add(m)
				win.Get(l.rank, homeRank, segOff0+int(m.Lo-uint64(g0)), dst)
				s.Stats.FetchOps++
				s.Stats.FetchBytes += m.Len()
				fetched += m.Len()
				s.rec.Instant(me, trace.KCacheMiss, l.rank.Proc().Now(), int64(m.Len()), 0)
			}
			if ov := req.Len(); ov > fetched {
				l.hit(ov - fetched)
			}
		} else {
			l.hit(req.Len())
		}
		rec.pieces = append(rec.pieces, piece{
			g: Addr(req.Lo), n: int(req.Len()),
			cb: cb, blockBase: g0,
		})
	}

	// Wait for all fetches (MPI_Win_flush_all at Fig. 4 line 30).
	l.rank.Flush()

	view := l.getView(size)
	if mode != Write {
		l.copyPieces(rec.pieces, view, addr, false)
	}
	rec.view = view
	l.outstanding = append(l.outstanding, rec)
	if v := s.val; v != nil {
		v.registerCheckout(l, addr, addr+size, mode, t0)
	}
	l.span(trace.KCheckout, t0, size)
	return view, nil
}

// acquireCacheBlock gets a cache block for bid, writing back all dirty data
// and retrying once if the cache is full of dirty blocks (§4.4).
func (l *Local) acquireCacheBlock(bid int64) (*memblock.Block, error) {
	cb, evicted, err := l.cache.Acquire(bid)
	if err == memblock.ErrNoEvictable {
		l.writeBackAll(trace.KWriteBackAll, 0)
		cb, evicted, err = l.cache.Acquire(bid)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTooMuchCheckout, err)
	}
	if evicted != nil {
		l.rank.Proc().Advance(costMmap)
		l.space.Stats.Mmaps++
		l.space.Stats.Evictions++
		l.space.rec.Instant(l.rank.ID(), trace.KEviction, l.rank.Proc().Now(), evicted.ID, 0)
	}
	if l.cache.SetMapped(cb, true) {
		l.rank.Proc().Advance(costMmap)
		l.space.Stats.Mmaps++
	}
	return cb, nil
}

// copyPieces moves bytes between the view and the backing blocks/segments.
// toBacking=false copies backing→view (checkout); true copies view→backing
// (checkin).
func (l *Local) copyPieces(pieces []piece, view []byte, addr Addr, toBacking bool) {
	for _, p := range pieces {
		v := view[p.g-addr : Addr(int(p.g-addr)+p.n)]
		var backing []byte
		if p.cb != nil {
			backing = p.cb.Data[p.g-p.blockBase : Addr(int(p.g-p.blockBase)+p.n)]
		} else {
			backing = p.win.Seg(p.homeRank)[p.segOff : p.segOff+p.n]
		}
		if toBacking {
			copy(backing, v)
		} else {
			copy(v, backing)
		}
	}
}

// Checkin completes a prior Checkout with identical arguments (§3.3). In
// Write or ReadWrite mode the whole region is considered written: it is
// propagated to its home immediately (write-through) or recorded dirty for
// the next release fence (write-back).
func (l *Local) Checkin(addr Addr, size uint64, mode Mode) error {
	s := l.space
	t0 := l.rank.Proc().Now()
	s.Stats.CheckinCalls++

	idx := -1
	for i := len(l.outstanding) - 1; i >= 0; i-- {
		r := &l.outstanding[i]
		if r.addr == addr && r.size == size && r.mode == mode {
			idx = i
			break
		}
	}
	if idx < 0 {
		// The validator can upgrade this to a use-after-checkin diagnostic
		// when the same right was recently retired (double checkin).
		if v := s.val; v != nil && size > 0 {
			if err := v.onMissingCheckin(l, addr, addr+size, mode); err != nil {
				return err
			}
		}
		return fmt.Errorf("%w: (%#x, %d, %v)", ErrUnmatchedCheckin, addr, size, mode)
	}
	rec := l.outstanding[idx]
	l.outstanding = append(l.outstanding[:idx], l.outstanding[idx+1:]...)
	if v := s.val; v != nil && size > 0 {
		v.onCheckin(l, addr, addr+size, mode)
	}

	// SDC hook: both the NoCache and the cached path below commit
	// rec.view verbatim, so flipping/folding the view here covers every
	// write this rank publishes.
	if (l.sdcDigestArmed || l.sdcFlipArmed) && mode != Read && size > 0 {
		l.sdcOnCheckin(rec.view)
	}

	if s.cfg.Policy == NoCache {
		if mode != Read {
			if err := l.putFrom(rec.view, addr); err != nil {
				return err
			}
			// Uncached writes land in home memory right here.
			if v := s.val; v != nil && size > 0 {
				v.markHomed(addr, addr+size, l.rank.Proc().Now())
			}
		}
		l.putView(rec.view)
		l.span(trace.KCheckin, t0, size)
		return nil
	}

	if mode != Read {
		l.copyPieces(rec.pieces, rec.view, addr, true)
	}
	flush := false
	for _, p := range rec.pieces {
		l.rank.Proc().Advance(costCheckinBlock)
		if p.cb != nil {
			if mode != Read {
				iv := region.Interval{Lo: uint64(p.g), Hi: uint64(p.g) + uint64(p.n)}
				if s.cfg.Policy == WriteThrough {
					// Write dirty bytes home immediately, forgetting them.
					// With coalescing the pieces are gathered first, so a
					// checkin spanning consecutive same-home blocks ships
					// one Put instead of one per block.
					if s.cfg.CoalesceWriteBack {
						l.gatherRun(p.cb, iv)
					} else {
						l.putDirtyInterval(p.cb, iv)
						flush = true
					}
				} else {
					p.cb.Dirty.Add(iv)
				}
				// Re-validate the written region: dirty ⊆ valid must hold so
				// fetches never overwrite dirty data (Fig. 4 line 19). Only
				// this rank's thread touches its cache and the runtime's
				// fences run at fork-join points, which a checkout may not
				// span, so the region is normally still valid here; re-adding
				// it keeps the invariant even when code fences explicitly
				// between a checkout and its checkin.
				p.cb.Valid.Add(iv)
			}
			p.cb.Ref--
		} else {
			// Home path: the copy above already updated home memory, so a
			// written piece is home-visible as of this checkin — without
			// ever being cache-dirty or touching a fence.
			if v := s.val; v != nil && mode != Read {
				v.markHomed(uint64(p.g), uint64(p.g)+uint64(p.n), l.rank.Proc().Now())
			}
			p.hb.Ref--
		}
	}
	if len(l.wbRuns) > 0 {
		for _, t := range l.issueRuns() {
			l.rank.FlushRank(t)
		}
		l.resetRuns()
	}
	if flush {
		l.rank.Flush()
	}
	l.putView(rec.view)
	l.putPieces(rec.pieces)
	l.span(trace.KCheckin, t0, size)
	return nil
}

// putDirtyInterval writes the bytes of iv (global addresses, within cb's
// block) from the cache block to their home. Nonblocking; callers flush.
func (l *Local) putDirtyInterval(cb *memblock.Block, iv region.Interval) {
	s := l.space
	bs := uint64(s.cfg.BlockSize)
	g0 := Addr(uint64(cb.ID) * bs)
	a, err := s.findAlloc(Addr(iv.Lo), iv.Len())
	if err != nil {
		panic(fmt.Sprintf("pgas: dirty interval %v outside allocations: %v", iv, err))
	}
	homeRank, win, segOff0 := s.blockHome(a, g0)
	src := cb.Data[iv.Lo-uint64(g0) : iv.Hi-uint64(g0)]
	win.Put(l.rank, src, homeRank, segOff0+int(iv.Lo-uint64(g0)))
	s.Stats.WriteBackOps++
	s.Stats.WriteBackBytes += iv.Len()
	s.rec.Instant(l.rank.ID(), trace.KWriteBack, l.rank.Proc().Now(), int64(iv.Len()), 0)
	// The put copied the bytes into home memory at the call instant: for
	// the validator's ledger they are home-visible from now on, whether
	// this flush came from a fence, cache pressure, or write-through.
	if v := s.val; v != nil {
		v.markHomed(iv.Lo, iv.Hi, l.rank.Proc().Now())
	}
}

// getInto reads [addr, addr+len(dst)) from home memory into dst — the
// conventional GET API (§2.2), a thin wrapper over one-sided reads with no
// caching.
func (l *Local) getInto(addr Addr, dst []byte) error {
	err := l.space.forEachHomeSeg(addr, uint64(len(dst)), func(home int, win *rma.Win, off int, g Addr, n int) error {
		win.Get(l.rank, home, off, dst[g-addr:Addr(int(g-addr)+n)])
		return nil
	})
	if err != nil {
		return err
	}
	l.rank.Flush()
	return nil
}

// putFrom writes src to [addr, addr+len(src)) in home memory — the
// conventional PUT API, uncached.
func (l *Local) putFrom(src []byte, addr Addr) error {
	err := l.space.forEachHomeSeg(addr, uint64(len(src)), func(home int, win *rma.Win, off int, g Addr, n int) error {
		win.Put(l.rank, src[g-addr:Addr(int(g-addr)+n)], home, off)
		return nil
	})
	if err != nil {
		return err
	}
	l.rank.Flush()
	return nil
}

// Get is the public uncached GET API: it copies size bytes from global
// memory to a fresh local buffer.
func (l *Local) Get(addr Addr, size uint64) ([]byte, error) {
	t0 := l.rank.Proc().Now()
	dst := alignedBytes(size)
	if err := l.getInto(addr, dst); err != nil {
		return nil, err
	}
	l.space.rec.Span(l.rank.ID(), trace.KGet, t0, l.rank.Proc().Now()-t0, int64(size), 0)
	return dst, nil
}

// Put is the public uncached PUT API: it copies src to global memory.
func (l *Local) Put(src []byte, addr Addr) error {
	t0 := l.rank.Proc().Now()
	if err := l.putFrom(src, addr); err != nil {
		return err
	}
	l.space.rec.Span(l.rank.ID(), trace.KPut, t0, l.rank.Proc().Now()-t0, int64(len(src)), 0)
	return nil
}

// OutstandingCheckouts returns the number of unmatched checkouts, used to
// verify checkout/checkin pairing at thread switch points.
func (l *Local) OutstandingCheckouts() int { return len(l.outstanding) }

func maxAddr(a, b Addr) Addr {
	if a > b {
		return a
	}
	return b
}

func minAddr(a, b Addr) Addr {
	if a < b {
		return a
	}
	return b
}

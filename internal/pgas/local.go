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

	// epoch is the owner's copy of its window's currentEpoch word (only
	// the owner writes it), and owed the highest handler epoch ReleaseLazy
	// has handed out: requested answers the lazy-release poll from them.
	epoch, owed uint64

	outstanding []checkoutRec

	// viewPool and piecePool recycle the staged view buffers (multi-block
	// and NoCache checkouts; a one-block checkout's view is the cache
	// block's own bytes and is never pooled) and the piece lists retired by
	// Checkin. Purely a host-allocation optimization: pooling never touches
	// simulated time, and a staged view's contents are either undefined
	// (Write) or fully overwritten from backing (Read modes), so reuse is
	// invisible to callers who honour the checkout contract.
	viewPool  [][]byte
	piecePool [][]piece

	// Write-back scratch (batch.go): gathered dirty runs and the staging
	// buffer merged multi-run Puts ship from. Reused across write-backs;
	// all host-side bookkeeping.
	wbRuns  []wbRun
	wbStage []byte

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
	l.rank.Proc().Sync()
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

// checkoutRec is one outstanding checkout. When validating, Checkout
// stamps it with its owner's task segment, its start time and its
// registration order: the outstanding rights the validator checks.
type checkoutRec struct {
	addr   Addr
	size   uint64
	mode   Mode
	view   []byte
	pieces []piece
	task   int64
	t0     sim.Time
	seq    uint64
}

// Rank returns the underlying communication endpoint.
func (l *Local) Rank() *rma.Rank { return l.rank }

// Space returns the global address space.
func (l *Local) Space() *Space { return l.space }

// span reports the Checkout or Checkin call that began at t0 as one span
// of kind k, its category total redirected to ProfCategory when set.
func (l *Local) span(k trace.Kind, t0 sim.Time, size uint64) {
	l.space.rec.SpanAs(l.ProfCategory, l.rank.ID(), k, t0, l.rank.Proc().Now()-t0, int64(size), 0)
}

// validator returns the space's checkout validator, nil when it is off. Its
// ledger holds every rank's accesses, so the rank's banked charges are
// taken first.
func (l *Local) validator() *validator {
	v := l.space.val
	if v != nil {
		l.rank.Proc().Sync()
	}
	return v
}

// hit counts n requested bytes found valid in the cache or home-local.
func (l *Local) hit(n uint64) { l.space.Stats.HitBytes += n }

// Checkout claims access to the global region [addr, addr+size) in the
// given mode and returns a view of it (§3.3). The view's contents are the
// up-to-date global data for Read and ReadWrite, and undefined for Write.
// A region within one cache block is viewed in place, in the block's own
// storage, so the view must not be touched after its Checkin. Every
// Checkout must be paired with exactly one Checkin carrying the same
// arguments. Checkout fails with ErrTooMuchCheckout when the region cannot
// be pinned within the fixed-size cache; callers should then split the
// access into smaller chunks.
func (l *Local) Checkout(addr Addr, size uint64, mode Mode) ([]byte, error) {
	s := l.space
	t0 := l.rank.Proc().Now()
	s.Stats.CheckoutCalls++

	rec := checkoutRec{addr: addr, size: size, mode: mode}
	if size > 0 {
		a, err := s.findAlloc(addr, size)
		if err != nil {
			return nil, err
		}
		// Discipline check before any cache state changes: a violating
		// checkout fails fast and leaves caches untouched.
		if v := l.validator(); v != nil {
			if err := v.onCheckout(l, a, addr, addr+size, mode); err != nil {
				return nil, err
			}
		}
		if s.cfg.Policy == NoCache {
			// The paper's baseline: checkout/checkin become GET/PUT on a
			// freshly allocated user buffer (§6.1).
			rec.view = l.getView(size)
			if mode != Write {
				if err := l.getInto(addr, rec.view); err != nil {
					return nil, err
				}
			}
		} else if err := l.checkoutCached(a, &rec); err != nil {
			return nil, err
		}
		// The one success exit: a failed checkout leaves no right behind.
		if v := l.validator(); v != nil {
			v.stamp(l, &rec, t0)
		}
		l.span(trace.KCheckout, t0, size)
	}
	l.outstanding = append(l.outstanding, rec)
	return rec.view, nil
}

// checkoutCached pins the cache and home blocks of rec's region, which
// lies in allocation a, fetching what a readable mode needs, and sets
// rec's pieces and view.
func (l *Local) checkoutCached(a *allocation, rec *checkoutRec) error {
	s := l.space
	addr, size, mode := rec.addr, rec.size, rec.mode
	bs := uint64(s.cfg.BlockSize)
	sbs := uint64(s.cfg.SubBlockSize)
	me := l.rank.ID()
	net := s.comm.Net()

	rec.pieces = l.getPieces()
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
		req := region.Interval{Lo: uint64(max(g0, addr)), Hi: uint64(min(g0+Addr(bs), addr+Addr(size)))}
		homeRank, segOff0 := a.homeOf(g0, bs)
		l.rank.Proc().Charge(costCheckoutBlock)

		if net.SameNode(homeRank, me) {
			// Home path: the block is (intra-node) shared memory, mapped
			// directly into the global view (§4.1). Home blocks are still
			// dynamically mapped and reference-counted (§4.3.2).
			hb, evicted, herr := l.home.Acquire(int64(bid))
			if herr != nil {
				undo()
				return fmt.Errorf("%w: home blocks: %v", ErrTooMuchCheckout, herr)
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
				hb: hb, homeRank: homeRank, win: a.win,
				segOff: segOff0 + int(Addr(req.Lo)-g0),
			})
			continue
		}

		// Cache path (Fig. 4).
		cb, err := l.acquireCacheBlock(int64(bid))
		if err != nil {
			undo()
			return err
		}
		cb.Ref++
		if mode == Write {
			l.cache.MarkValid(cb, req)
			l.hit(req.Len())
		} else if !cb.Valid.Contains(req) {
			// Fetch missing sub-blocks from the home (Fig. 4 lines 17-21).
			// The fetch is clipped at a noncollective home's attach and
			// reads its segment, both of which the owner's allocations
			// grow: the bank is taken first.
			l.rank.Proc().Sync()
			padded := region.Interval{
				Lo: req.Lo / sbs * sbs,
				Hi: (req.Hi + sbs - 1) / sbs * sbs,
			}
			if padded.Lo < uint64(g0) {
				padded.Lo = uint64(g0)
			}
			limit := uint64(g0) + bs
			if a.base >= ncBase {
				limit = min(limit, uint64(a.base)+s.nc[homeRank].attached)
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
				l.cache.MarkValid(cb, m)
				a.win.Get(l.rank, homeRank, segOff0+int(m.Lo-uint64(g0)), dst)
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

	// A checkout within one cache block gets the block's own bytes, the
	// paper's pointer into cache memory; the block is pinned until the
	// checkin. Anything else is staged through a copy: a home piece lives
	// in a window segment that rma.Win.Grow may reallocate.
	var view []byte
	if p := rec.pieces; direct(p) {
		off := p[0].g - p[0].blockBase
		view = p[0].cb.Data[off : off+Addr(size) : off+Addr(size)]
	} else {
		view = l.getView(size)
		if mode != Write {
			l.copyPieces(rec.pieces, view, addr, false)
		}
	}
	rec.view = view
	return nil
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

// direct reports whether a checkout of these pieces hands out the cache
// block's own bytes: it lies in one cache block.
func direct(pieces []piece) bool { return len(pieces) == 1 && pieces[0].cb != nil }

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
			// A home block is a window segment other ranks read and write.
			l.rank.Proc().Sync()
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
	// The validator retires a matched right, or can upgrade an unmatched
	// checkin to a use-after-checkin diagnostic when the same right was
	// recently retired (double checkin).
	if v := l.validator(); v != nil && size > 0 {
		if err := v.onCheckin(l, idx, addr, size, mode); err != nil {
			return err
		}
	}
	if idx < 0 {
		return fmt.Errorf("%w: (%#x, %d, %v)", ErrUnmatchedCheckin, addr, size, mode)
	}
	rec := l.outstanding[idx]
	l.outstanding = append(l.outstanding[:idx], l.outstanding[idx+1:]...)

	// SDC hook: both the NoCache and the cached path below commit
	// rec.view verbatim, so flipping/folding the view here covers every
	// write this rank publishes.
	if (l.sdcDigestArmed || l.sdcFlipArmed) && mode != Read && size > 0 {
		l.sdcOnCheckin(rec.view)
	}

	// A written view reaches backing memory: home memory itself under
	// NoCache (the paper's baseline PUT) and for home pieces, the cache
	// blocks otherwise. The bytes stored home are home-visible from here.
	staged := !direct(rec.pieces)
	if mode != Read {
		if s.cfg.Policy == NoCache {
			if err := l.putFrom(rec.view, addr); err != nil {
				return err
			}
		} else if staged {
			l.copyPieces(rec.pieces, rec.view, addr, true)
		}
		if v := l.validator(); v != nil && size > 0 {
			v.onHomeStore(l, &rec)
		}
	}
	if s.cfg.Policy == NoCache {
		l.putView(rec.view)
		l.span(trace.KCheckin, t0, size)
		return nil
	}

	for _, p := range rec.pieces {
		l.rank.Proc().Charge(costCheckinBlock)
		if p.cb != nil {
			if mode != Read {
				iv := region.Interval{Lo: uint64(p.g), Hi: uint64(p.g) + uint64(p.n)}
				if s.cfg.Policy == WriteThrough {
					// Write the bytes home immediately, never dirtying the
					// cache. The pieces are gathered first, so a checkin
					// spanning consecutive same-home blocks ships one Put
					// instead of one per block.
					l.gatherRun(p.cb, iv)
				} else {
					l.cache.MarkDirty(p.cb, iv)
				}
				// Re-validate the written region: dirty ⊆ valid must hold so
				// fetches never overwrite dirty data (Fig. 4 line 19). Only
				// this rank's thread touches its cache and the runtime's
				// fences run at fork-join points, which a checkout may not
				// span, so the region is normally still valid here; re-adding
				// it keeps the invariant even when code fences explicitly
				// between a checkout and its checkin.
				l.cache.MarkValid(p.cb, iv)
			}
			p.cb.Ref--
		} else {
			// Home path: the copy above already updated home memory, so a
			// written piece is never cache-dirty and needs no fence.
			p.hb.Ref--
		}
	}
	l.flushRuns()
	if staged {
		l.putView(rec.view)
	}
	l.putPieces(rec.pieces)
	l.span(trace.KCheckin, t0, size)
	return nil
}

// getInto reads [addr, addr+len(dst)) from home memory into dst — the
// conventional GET API (§2.2), a thin wrapper over one-sided reads with no
// caching.
func (l *Local) getInto(addr Addr, dst []byte) error {
	if err := l.space.forEachHomeSeg(addr, uint64(len(dst)), func(home int, win *rma.Win, off int, g Addr, n int) {
		win.Get(l.rank, home, off, dst[g-addr:Addr(int(g-addr)+n)])
	}); err != nil {
		return err
	}
	l.rank.Flush()
	return nil
}

// putFrom writes src to [addr, addr+len(src)) in home memory — the
// conventional PUT API, uncached.
func (l *Local) putFrom(src []byte, addr Addr) error {
	if err := l.space.forEachHomeSeg(addr, uint64(len(src)), func(home int, win *rma.Win, off int, g Addr, n int) {
		win.Put(l.rank, src[g-addr:Addr(int(g-addr)+n)], home, off)
	}); err != nil {
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

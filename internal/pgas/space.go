package pgas

import (
	"fmt"
	"sort"

	"ityr/internal/memblock"
	"ityr/internal/region"
	"ityr/internal/rma"
	"ityr/internal/sim"
	"ityr/internal/trace"
)

// allocation is one live global-heap allocation.
type allocation struct {
	base   Addr
	size   uint64 // rounded up to whole blocks
	policy DistPolicy
	win    *rma.Win
	chunk  uint64 // per-rank contiguous bytes (BlockDist)
	nranks uint64
	// first is the rank of the first chunk: the owner of a noncollective
	// region, 0 for a collective allocation.
	first  int
	freed  bool
	writes []region.Map[writeRec] // the validator's ledger, one map a block (validate.go)
}

// homeOf resolves a global address within this allocation to its home rank
// and the offset within that rank's window segment.
func (a *allocation) homeOf(addr Addr, blockSize uint64) (rank int, off int) {
	rel := addr - a.base
	switch a.policy {
	case BlockDist:
		return a.first + int(rel/a.chunk), int(rel % a.chunk)
	case BlockCyclicDist:
		b := rel / blockSize
		return int(b % a.nranks), int((b/a.nranks)*blockSize + rel%blockSize)
	}
	panic("pgas: bad policy")
}

// homeSpan returns the number of bytes from addr to the end of addr's
// contiguous home region within the allocation.
func (a *allocation) homeSpan(addr Addr, blockSize uint64) uint64 {
	rel := addr - a.base
	switch a.policy {
	case BlockDist:
		return a.chunk - rel%a.chunk
	case BlockCyclicDist:
		return blockSize - rel%blockSize
	}
	panic("pgas: bad policy")
}

// ncHeap is one rank's noncollective heap (§4.2): a bump pointer over the
// rank's ncSpan of virtual addresses, the simulated attach size, and the
// size-class free lists.
type ncHeap struct {
	used uint64 // bytes handed out, from the rank's region base
	// attached is the simulated MPI_Win_attach size, which sets when an
	// allocation pays an attach and where a cache miss is clipped. The host
	// segment backs only the part a miss can read (AllocLocal).
	attached uint64
	// free is created lazily on the first FreeLocal to the rank: most ranks
	// in a large run never free noncollective memory, and 16K eagerly
	// allocated empty maps cost more than every other piece of per-rank
	// pgas state combined. AllocLocal reads through a nil map for free.
	free map[uint64][]Addr
}

// ncRegion returns the base of rank r's noncollective region.
func ncRegion(r int) Addr { return ncBase + Addr(r)*ncSpan }

// Space is the cluster-wide global address space.
type Space struct {
	cfg  Config
	comm *rma.Comm
	// rec is the run's recorder, taken from comm (nil = record nothing):
	// every checkout, checkin, fence, write-back, eviction and validator
	// violation is reported to it exactly once.
	rec *trace.Recorder

	// The allocation table: the collective allocations in base order
	// (collNext only grows), freed ones included, and one pseudo-allocation
	// per rank's noncollective region, found by arithmetic.
	coll     []*allocation
	collNext Addr
	ncAllocs []allocation

	ncWin *rma.Win
	nc    []ncHeap // per rank

	epochWin *rma.Win // 16 bytes per rank: [0]=currentEpoch, [8]=requestEpoch

	// locals is one contiguous slab (like rma.Comm.ranks): per-rank
	// handles are indexed, not individually heap-allocated.
	locals []Local

	// Stats aggregates cache behaviour over the whole space: one struct
	// shared by every rank.
	Stats SpaceStats
	// Batch aggregates write-back coalescing behaviour. Kept separate from
	// Stats so runs that merge nothing leave it zero — golden digests fold
	// Batch in only when it is nonzero, which keeps the digests pinned
	// before the batching layer existed valid.
	Batch BatchStats
	// TaskOf, when non-nil, maps a rank to the trace DAG thread ID of the
	// task segment it is currently executing (0 = SPMD context). The
	// runtime wires it so validator diagnostics name task segments; it is
	// only consulted when Config.Validate is set.
	TaskOf func(rank int) int64

	val *validator
}

// BatchStats counts write-back coalescing events across all ranks: how
// much of the write-back traffic went out in merged multi-run Puts.
type BatchStats struct {
	// WBRunsMerged counts dirty runs folded into a preceding run's Put
	// (k runs merged into one Put add k-1 here).
	WBRunsMerged uint64
	// WBCoalescedBytes counts bytes shipped in merged (multi-run) Puts.
	WBCoalescedBytes uint64
	PrefetchedBlocks uint64 // always zero; kept only for the frozen benchmark module; removed by ROADMAP 7(d)
	PrefetchHits     uint64 // always zero; kept only for the frozen benchmark module; removed by ROADMAP 7(d)
}

// SpaceStats counts cache events across all ranks.
type SpaceStats struct {
	CheckoutCalls  uint64
	CheckinCalls   uint64
	FetchOps       uint64
	FetchBytes     uint64
	HitBytes       uint64 // requested bytes already valid or home-local
	WriteBackOps   uint64
	WriteBackBytes uint64
	Invalidations  uint64
	Mmaps          uint64
	Evictions      uint64
	LazyReleases   uint64
}

// New creates a Space over comm, reporting to comm's recorder.
func New(comm *rma.Comm, cfg Config) *Space {
	cfg = cfg.withDefaults()
	n := comm.Size()
	s := &Space{
		cfg:      cfg,
		comm:     comm,
		rec:      comm.Recorder(),
		collNext: collBase,
		ncWin:    comm.NewUniformWin(0),
		nc:       make([]ncHeap, n),
		epochWin: comm.NewUniformWin(16),
	}
	cacheBlocks := cfg.CacheSize / cfg.BlockSize
	if cacheBlocks < 1 {
		cacheBlocks = 1
	}
	if need := 2*cacheBlocks + 2*maxHomeBlocks + 1; need > maxMapEntries {
		panic(fmt.Sprintf("pgas: cache of %d blocks + %d home blocks needs %d mapping entries > limit %d (§4.3.2)",
			cacheBlocks, maxHomeBlocks, need, maxMapEntries))
	}
	s.locals = make([]Local, n)
	s.ncAllocs = make([]allocation, n)
	for i := 0; i < n; i++ {
		s.locals[i] = Local{
			space: s,
			rank:  comm.Rank(i),
			cache: memblock.NewTable(cacheBlocks, cfg.BlockSize, false),
			home:  memblock.NewTable(maxHomeBlocks, cfg.BlockSize, true),
		}
		s.ncAllocs[i] = allocation{
			base:   ncRegion(i),
			size:   uint64(ncSpan),
			policy: BlockDist,
			win:    s.ncWin,
			chunk:  uint64(ncSpan),
			nranks: 1,
			first:  i,
		}
	}
	if cfg.Validate {
		s.val = newValidator(s, n)
	}
	return s
}

// taskOf resolves the task segment currently running on rank for
// validator diagnostics; 0 when the runtime wired no resolver.
func (s *Space) taskOf(rank int) int64 {
	if s.TaskOf != nil {
		return s.TaskOf(rank)
	}
	return 0
}

// Validating reports whether the checkout-discipline validator is active.
func (s *Space) Validating() bool { return s.val != nil }

// Violations returns the checkout-discipline violations recorded so far,
// deterministically ordered (by detection time, then rank, then address).
// Nil when Config.Validate is off.
func (s *Space) Violations() []trace.ViolationRecord {
	if s.val == nil {
		return nil
	}
	return s.val.Violations()
}

// Config returns the active configuration.
func (s *Space) Config() Config { return s.cfg }

// Policy returns the cache policy.
func (s *Space) Policy() Policy { return s.cfg.Policy }

// ReleaseCaches hands every rank's cache-block storage back to the
// process-wide pool (memblock.Table.Release) when a run ends, so the next
// runtime in the process reuses it. A rank whose cache still holds dirty or
// pinned blocks keeps it; every other cache is left empty, and a later run
// on this space starts cold. It costs no simulated time.
func (s *Space) ReleaseCaches() {
	for i := range s.locals {
		s.locals[i].cache.Release()
	}
}

// Local returns rank i's handle.
func (s *Space) Local(i int) *Local { return &s.locals[i] }

// findAlloc locates the live allocation containing [addr, addr+size). A
// rank's noncollective region ends at the bytes its heap has handed out:
// past them the host segment holds nothing.
//
// The lookup relies on the collective heap lying below ncBase, which
// AllocCollective enforces.
func (s *Space) findAlloc(addr Addr, size uint64) (*allocation, error) {
	var a *allocation
	var end Addr
	if addr >= ncBase {
		if r := (addr - ncBase) / ncSpan; r < Addr(len(s.ncAllocs)) {
			a = &s.ncAllocs[r]
			end = a.base + s.nc[r].used
		}
	} else if i := sort.Search(len(s.coll), func(i int) bool { return s.coll[i].base > addr }); i > 0 {
		a = s.coll[i-1]
		end = a.base + a.size
	}
	if a == nil || a.freed || addr+size > end {
		return nil, fmt.Errorf("%w: [%#x,%#x)", ErrOutOfRange, addr, addr+size)
	}
	return a, nil
}

func align(v, to uint64) uint64 { return (v + to - 1) / to * to }

// AllocCollective allocates size bytes of global memory distributed across
// all ranks with the given policy. It must be called from the SPMD region
// or the root thread (it is a collective operation: every rank pays a
// barrier plus window-creation cost). The caller rank drives the cost
// accounting.
func (l *Local) AllocCollective(size uint64, policy DistPolicy) Addr {
	l.rank.Proc().Sync() // the allocation table is shared
	s := l.space
	if size == 0 {
		size = 1
	}
	bs := uint64(s.cfg.BlockSize)
	n := uint64(s.comm.Size())
	a := &allocation{policy: policy, nranks: n}
	sizes := make([]int, n)
	switch policy {
	case BlockDist:
		a.chunk = align(align(size, n)/n, bs)
		a.size = a.chunk * n
		for i := range sizes {
			sizes[i] = int(a.chunk)
		}
	case BlockCyclicDist:
		// A rank's segment holds the blocks it owns and no more: with fewer
		// blocks than ranks most segments are empty, where a uniform
		// ceil(nblocks/n) blocks each would cost a block per rank.
		a.size = align(size, bs)
		nblocks := a.size / bs
		for i := range sizes {
			owned := nblocks / n
			if uint64(i) < nblocks%n {
				owned++
			}
			sizes[i] = int(owned * bs)
		}
	default:
		panic("pgas: bad distribution policy")
	}
	if need := align(a.size, bs) + bs; need > uint64(ncBase-s.collNext) {
		panic(fmt.Errorf("%w: the collective heap has %d bytes left below the noncollective regions at %#x, asked for %d",
			ErrOutOfRange, uint64(ncBase-s.collNext), uint64(ncBase), need))
	}
	a.base = s.collNext
	s.collNext += Addr(align(a.size, bs)) + Addr(bs) // guard block between allocations
	a.win = s.comm.NewWin(sizes)
	s.coll = append(s.coll, a)
	// Collective cost: window creation is roughly a barrier plus an
	// exchange of window descriptors.
	l.rank.Proc().Advance(2 * s.comm.Net().Latency * sim.Time(log2ceil(int(n))+1))
	return a.base
}

// FreeCollective releases a collective allocation. The host memory backing
// the allocation and its validator ledger are dropped; the virtual range is
// never reused.
func (l *Local) FreeCollective(addr Addr) error {
	l.rank.Proc().Sync() // the allocation table is shared
	a, err := l.space.findAlloc(addr, 1)
	if err != nil || a.base != addr {
		return ErrBadFree
	}
	a.freed = true
	a.win = nil
	a.writes = nil
	return nil
}

// AllocLocal allocates size bytes from the calling rank's noncollective
// heap (§4.2). It involves no other rank, so it may be called from any
// thread in the fork-join region. The result is remotely accessible and
// freeable from any rank.
//
// The heap is a dynamically attached window. The simulated attach grows in
// MiB steps, doubling (align(used, 1 MiB) × 2), and each grow pays one
// MPI_Win_attach. The host segment behind the attach is shorter: it runs
// to the end of the block holding the last allocated byte, clipped at the
// attach, which is every byte a cache miss can pad to and under used +
// BlockSize. An allocation that would run past the rank's ncSpan panics
// with an error wrapping ErrOutOfRange.
func (l *Local) AllocLocal(size uint64) Addr {
	s := l.space
	me := l.rank.ID()
	h := &s.nc[me]
	if size == 0 {
		size = 1
	}
	n := align(size, 16)
	l.rank.Proc().Advance(costAllocLocal)
	if lst := h.free[n]; len(lst) > 0 {
		addr := lst[len(lst)-1]
		h.free[n] = lst[:len(lst)-1]
		return addr
	}
	// The span is a multiple of 16, so testing the unaligned size cannot
	// overflow and decides the same as testing n.
	if size > uint64(ncSpan)-h.used {
		panic(fmt.Errorf("%w: rank %d's noncollective heap has %d bytes of its %d-byte span left, asked for %d",
			ErrOutOfRange, me, uint64(ncSpan)-h.used, uint64(ncSpan), size))
	}
	region := ncRegion(me)
	addr := region + h.used
	h.used += n
	attach := h.used > h.attached
	if attach {
		h.attached = align(h.used, 1<<20) * 2
	}
	// Grow before the attach's charge: a miss another rank takes meanwhile
	// is already clipped at the new attach.
	s.ncWin.Grow(me, int(min(align(region+h.used, uint64(s.cfg.BlockSize))-region, h.attached)))
	if attach {
		l.rank.Proc().Advance(2 * sim.Microsecond) // MPI_Win_attach
	}
	return addr
}

// FreeLocal returns a noncollective allocation of the given size to its
// owner's free list. Remote frees pay one atomic round trip. It fails with
// ErrBadFree, charging nothing, for a range that runs past the owner's
// bump pointer (never handed out) or overlaps a block already on the
// owner's free list (a double free). A range wholly inside one live block
// but not at its start goes undetected: that would take per-block
// bookkeeping on AllocLocal's path.
func (l *Local) FreeLocal(addr Addr, size uint64) error {
	l.rank.Proc().Sync() // the owner's heap is shared
	s := l.space
	if size == 0 {
		size = 1
	}
	size = align(size, 16)
	a, err := s.findAlloc(addr, size)
	if err != nil || a.win != s.ncWin {
		return ErrBadFree
	}
	owner := a.first
	h := &s.nc[owner]
	end := addr + Addr(size)
	for class, lst := range h.free {
		for _, f := range lst {
			if f < end && addr < f+Addr(class) {
				return ErrBadFree
			}
		}
	}
	if owner != l.rank.ID() {
		l.rank.Proc().Advance(s.comm.Net().AtomicTime(l.rank.ID(), owner))
	} else {
		l.rank.Proc().Advance(costAllocLocal)
	}
	if h.free == nil {
		h.free = make(map[uint64][]Addr)
	}
	h.free[size] = append(h.free[size], addr)
	return nil
}

// HomeRank returns the rank owning the home of addr, for locality-aware
// callers and tests.
func (s *Space) HomeRank(addr Addr) (int, error) {
	a, err := s.findAlloc(addr, 1)
	if err != nil {
		return 0, err
	}
	r, _ := a.homeOf(addr, uint64(s.cfg.BlockSize))
	return r, nil
}

// forEachHomeSeg walks the home segments overlapping [addr, addr+size):
// contiguous pieces that live on a single rank, invoking fn(homeRank, win,
// segOff, gaddr, n). The range must lie within one allocation; the only
// error is findAlloc's, before fn is first called.
func (s *Space) forEachHomeSeg(addr Addr, size uint64, fn func(home int, win *rma.Win, off int, g Addr, n int)) error {
	a, err := s.findAlloc(addr, size)
	if err != nil {
		return err
	}
	bs := uint64(s.cfg.BlockSize)
	g := addr
	remaining := size
	for remaining > 0 {
		span := a.homeSpan(g, bs)
		if span > remaining {
			span = remaining
		}
		rank, off := a.homeOf(g, bs)
		fn(rank, a.win, off, g, int(span))
		g += Addr(span)
		remaining -= span
	}
	return nil
}

func log2ceil(n int) int {
	k := 0
	for v := 1; v < n; v *= 2 {
		k++
	}
	return k
}

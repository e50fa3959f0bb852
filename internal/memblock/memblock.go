// Package memblock manages the per-process physical memory blocks of the
// software cache: fixed pools of home and cache blocks, the blockID → block
// hash table, LRU eviction with reference counts, and the memory-mapping
// entry accounting of §4.3.2 of the paper. A cache block's host storage
// follows its validity: the block holds a buffer from the process-wide pool
// only while its bytes may mean something, and an acquire fence that leaves
// it with nothing valid, nothing dirty and no checkout hands the buffer back.
package memblock

import (
	"errors"
	"fmt"
	"sync"
	"unsafe"

	"ityr/internal/region"
)

// storage is the process-wide free list of cache-block storage, keyed by
// block size: the host's stand-in for the paper's cache region (§4.3), of
// which only the blocks holding valid bytes are backed. Acquire gives a
// block a buffer from it whenever it returns one without; an invalidation
// gives back the buffers of the blocks it leaves with nothing valid, dirty
// or checked out, and Release the rest when a run ends. So a cache holds
// about as much host memory as it holds meaningful bytes, and every block
// and runtime after the first reuses storage instead of allocating it.
// Storage is never zeroed. It does not need to be: the bytes of a cache
// block outside its Valid set are never read as data — a read checkout
// fetches every missing byte before handing out its view, a write
// checkout's view is the caller's to overwrite (its contents are undefined,
// and may be whatever any block of that size last held), and write-back
// copies only Dirty ⊆ Valid. Storage is 8-byte aligned, because a checkout
// that lies in one block hands out the block's own bytes and the caller may
// read them as a typed slice. It is not a sync.Pool, which drops what it
// holds at every garbage collection, and a run collects many times.
var storage = struct {
	mu   sync.Mutex
	free map[int][][]byte
}{free: make(map[int][][]byte)}

// takeStorage returns size bytes of block storage, from the pool when it
// has some.
func takeStorage(size int) []byte {
	storage.mu.Lock()
	if l := storage.free[size]; len(l) > 0 {
		b := l[len(l)-1]
		l[len(l)-1] = nil
		storage.free[size] = l[:len(l)-1]
		storage.mu.Unlock()
		return b
	}
	storage.mu.Unlock()
	w := make([]uint64, (size+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), size)
}

// Errors reported by Acquire.
var (
	// ErrNoEvictable means every block is pinned or dirty; the caller
	// should write back all dirty blocks and retry (§4.4).
	ErrNoEvictable = errors.New("memblock: no evictable block (all pinned or dirty)")
	// ErrTooMuchCheckout means every block is pinned by outstanding
	// checkouts — the fixed-size cache cannot satisfy the request
	// (the too-much-checkout exception of §4.3.1).
	ErrTooMuchCheckout = errors.New("memblock: too much checked-out memory for cache capacity")
)

// Block is one physical memory block (home or cache).
type Block struct {
	// ID is the global block number currently associated with this
	// physical block, or -1 when free.
	ID int64
	// Data is the backing storage of a cache block, taken from the
	// process-wide pool: non-nil whenever Acquire has returned the block,
	// nil again after an invalidation left it nothing valid, dirty or
	// checked out (and always nil for home blocks, whose bytes are the
	// rank's home segment).
	Data []byte
	// Valid tracks the up-to-date byte regions within the block, in
	// absolute global addresses (cache blocks only; home blocks are
	// authoritative and have no Valid set).
	Valid region.Set
	// Dirty tracks locally modified regions awaiting write-back, in
	// absolute global addresses.
	Dirty region.Set
	// Ref counts outstanding checkouts (Fig. 4 refCount).
	Ref int
	// Mapped records whether the block is currently mapped into the
	// process's global view (mb.addr == mb.mappedAddr).
	Mapped bool
	// Home distinguishes home blocks from cache blocks.
	Home bool

	// onDirty and onValid record that the block is on its table's dirty
	// or valid list, so MarkDirty and MarkValid list it once.
	onDirty, onValid bool

	prev, next *Block
}

// Pinned reports whether the block is held by outstanding checkouts.
func (b *Block) Pinned() bool { return b.Ref > 0 }

// Evictable implements the paper's rule: a block is evictable iff it is not
// dirty and its reference count is zero.
func (b *Block) Evictable() bool { return b.Ref == 0 && b.Dirty.Empty() }

// Table is a fixed pool of physical blocks with an LRU replacement policy.
//
// Besides the LRU list the table keeps two lists that fences walk instead
// of every resident block: dirty holds every block whose Dirty set is
// non-empty, valid every block whose Valid set is, and either may also
// hold blocks that have emptied since. A Dirty or Valid set may grow only
// through MarkDirty and MarkValid, which list the block. Slots past a
// list's length hold only the table's own blocks, so they keep nothing
// alive.
type Table struct {
	blockSize int
	home      bool
	byID      map[int64]*Block
	// Circular LRU list through the sentinel: lru.next is least recently
	// used, lru.prev most recently.
	lru          Block
	dirty, valid []*Block
	nblocks      int
	allocated    int // physical blocks created since NewTable or the last Release
	mapped       int // blocks currently mapped into the global view

	// Evictions counts completed evictions, for tests and the profiler.
	Evictions uint64
}

// NewTable creates a table of nblocks physical blocks of blockSize bytes.
// A cache block takes its storage from the process-wide pool when Acquire
// returns it without any, and gives it back when an invalidation leaves it
// nothing to hold, so a large configured cache costs host memory only for
// the blocks holding valid bytes; Release returns the rest. If home is true
// the blocks are home blocks (no Valid tracking, storage supplied by the
// caller: they own none and are never pooled).
func NewTable(nblocks, blockSize int, home bool) *Table {
	if nblocks <= 0 || blockSize <= 0 {
		panic(fmt.Sprintf("memblock: invalid table %d x %d", nblocks, blockSize))
	}
	t := &Table{
		blockSize: blockSize,
		home:      home,
		byID:      make(map[int64]*Block),
		nblocks:   nblocks,
	}
	t.lru.next, t.lru.prev = &t.lru, &t.lru
	return t
}

// MappedCount returns how many blocks are currently mapped into the global
// view (memory-mapping entries consumed, §4.3.2).
func (t *Table) MappedCount() int { return t.mapped }

// Lookup returns the block currently holding global block id, or nil. It
// refreshes the block's LRU position.
func (t *Table) Lookup(id int64) *Block {
	b := t.byID[id]
	if b != nil {
		t.touch(b)
	}
	return b
}

// Peek returns the block holding id without touching LRU state.
func (t *Table) Peek(id int64) *Block { return t.byID[id] }

// Acquire returns the block for global block id, assigning a free or
// evicted physical block if necessary (GetMemBlock in Fig. 4), with storage:
// a cache block that has none, whether hit or newly assigned, takes a
// buffer from the pool. The second result is the evicted victim (nil if
// none): the caller must unmap it and discard any cached state before
// reusing the returned block, whose Valid and Dirty sets are cleared and
// Mapped is false when newly assigned.
//
// Acquire fails with ErrNoEvictable if the pool is full and every block is
// pinned or dirty, and with ErrTooMuchCheckout if every block is pinned.
func (t *Table) Acquire(id int64) (blk *Block, evicted *Block, err error) {
	if b := t.byID[id]; b != nil {
		t.touch(b)
		t.back(b)
		return b, nil, nil
	}
	var b *Block
	if t.allocated < t.nblocks {
		b = &Block{ID: -1}
		t.allocated++
		t.insertTail(b)
	} else {
		// Walk the LRU list from its least recently used end for an
		// evictable block (Fig. 4).
		allPinned := true
		for cur := t.lru.next; cur != &t.lru; cur = cur.next {
			if !cur.Pinned() {
				allPinned = false
			}
			if cur.Evictable() {
				b = cur
				break
			}
		}
		if b == nil {
			if allPinned {
				return nil, nil, ErrTooMuchCheckout
			}
			return nil, nil, ErrNoEvictable
		}
		delete(t.byID, b.ID)
		evicted = b
		t.Evictions++
		if b.Mapped {
			t.mapped--
			b.Mapped = false
		}
		t.touch(b)
	}
	b.ID = id
	b.Valid.Clear()
	b.Dirty.Clear()
	b.Ref = 0
	t.byID[id] = b
	t.back(b)
	return b, evicted, nil
}

// back gives a cache block that holds no storage some from the pool.
func (t *Table) back(b *Block) {
	if b.Data == nil && !t.home {
		b.Data = takeStorage(t.blockSize)
	}
}

// SetMapped updates the mapping state of a block, maintaining the
// mapping-entry count. It reports whether the state changed (i.e. whether
// an mmap call would have been issued).
func (t *Table) SetMapped(b *Block, mapped bool) bool {
	if b.Mapped == mapped {
		return false
	}
	b.Mapped = mapped
	if mapped {
		t.mapped++
	} else {
		t.mapped--
	}
	return true
}

// MarkDirty adds iv to b's dirty regions and lists b as dirty. It lists b
// as valid too, because an invalidation leaves a block's dirty bytes valid.
func (t *Table) MarkDirty(b *Block, iv region.Interval) {
	b.Dirty.Add(iv)
	if !b.onDirty {
		b.onDirty = true
		t.dirty = append(t.dirty, b)
	}
	t.listValid(b)
}

// MarkValid adds iv to b's valid regions and lists b as valid.
func (t *Table) MarkValid(b *Block, iv region.Interval) {
	b.Valid.Add(iv)
	t.listValid(b)
}

func (t *Table) listValid(b *Block) {
	if !b.onValid {
		b.onValid = true
		t.valid = append(t.valid, b)
	}
}

// HasDirty reports whether any block has dirty regions.
func (t *Table) HasDirty() bool { return len(t.DirtyBlocks()) > 0 }

// DirtyBlocks returns the blocks that have dirty regions, in no particular
// order. The slice is the table's own list, valid until the next call into
// the table. It first drops the listed blocks whose dirty regions have all
// been written back (Dirty.Subtract) or discarded (an eviction's
// reassignment) since they were listed.
func (t *Table) DirtyBlocks() []*Block {
	kept := t.dirty[:0]
	for _, b := range t.dirty {
		if b.Dirty.Empty() {
			b.onDirty = false
		} else {
			kept = append(kept, b)
		}
	}
	t.dirty = kept
	return kept
}

// InvalidateAllExceptDirty clears valid regions but keeps dirty bytes
// valid (acquire fence self-invalidation, §4.4). Dirty bytes are this
// cache's own unreleased writes — under data-race-freedom no other rank can
// have released a conflicting write, so they are always at least as fresh
// as home memory, and clearing their valid bits would let a later fetch
// overwrite them (the invariant of Fig. 4 line 19: dirty ⊆ valid). The
// fence protocol writes a cache back before invalidating it, so no block is
// dirty here in practice; keeping dirty bytes valid makes the invalidation
// safe under any schedule regardless. Only the valid list is walked, and
// only the blocks left valid stay on it. A block left with nothing valid
// and no checkout hands its storage to the pool: its bytes mean nothing
// now. A checked-out block keeps it, because a view of a block that lies
// in one block is the block's own bytes until its Checkin.
func (t *Table) InvalidateAllExceptDirty() {
	kept := t.valid[:0]
	storage.mu.Lock()
	free := storage.free[t.blockSize]
	for _, b := range t.valid {
		b.Valid.CopyFrom(&b.Dirty.Map)
		if !b.Dirty.Empty() {
			kept = append(kept, b)
			continue
		}
		b.onValid = false
		if b.Ref == 0 && b.Data != nil {
			free = append(free, b.Data)
			b.Data = nil
		}
	}
	storage.free[t.blockSize] = free
	storage.mu.Unlock()
	t.valid = kept
}

// Release hands the storage the table's blocks still hold back to the
// process-wide pool and empties the table, as if it had just been created.
// A table that still holds a dirty or pinned block keeps everything: those
// bytes have not reached their home yet. A home table owns no storage and
// is left alone. The caller must hold no Block of the table across a
// Release.
func (t *Table) Release() {
	if t.home {
		return
	}
	for cur := t.lru.next; cur != &t.lru; cur = cur.next {
		if !cur.Evictable() {
			return
		}
	}
	storage.mu.Lock()
	free := storage.free[t.blockSize]
	for cur := t.lru.next; cur != &t.lru; cur = cur.next {
		if cur.Data != nil {
			free = append(free, cur.Data)
			cur.Data = nil
		}
	}
	storage.free[t.blockSize] = free
	storage.mu.Unlock()
	clear(t.byID)
	t.dirty, t.valid = nil, nil
	t.lru.next, t.lru.prev = &t.lru, &t.lru
	t.allocated = 0
	t.mapped = 0
}

func (t *Table) touch(b *Block) {
	if b.prev != nil {
		b.prev.next = b.next
		b.next.prev = b.prev
	}
	t.insertTail(b)
}

func (t *Table) insertTail(b *Block) {
	b.prev = t.lru.prev
	b.next = &t.lru
	t.lru.prev.next = b
	t.lru.prev = b
}

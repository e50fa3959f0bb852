// Package memblock manages the per-process physical memory blocks of the
// software cache: fixed pools of home and cache blocks, the blockID → block
// hash table, LRU eviction with reference counts, and the memory-mapping
// entry accounting of §4.3.2 of the paper.
package memblock

import (
	"errors"
	"fmt"
	"sync"

	"ityr/internal/region"
)

// storage is the process-wide free list of cache-block storage, keyed by
// block size: the host's stand-in for the paper's cache region, mapped once
// at start-up (§4.3). A table takes a block's bytes from it on first touch
// and Release gives them back when a run ends, so every runtime after the
// first in a process reuses storage instead of allocating it. Storage is
// never zeroed. It does not need to be: the bytes of a cache block outside
// its Valid set are never read — a read checkout fetches every missing byte
// before copying, a write checkout's view overwrites the bytes it marks
// valid, and write-back copies only Dirty ⊆ Valid. It is not a sync.Pool,
// which drops what it holds at every garbage collection, and a run
// collects many times.
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
	return make([]byte, size)
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
	// process-wide pool (nil for home blocks, whose bytes are the rank's
	// home segment).
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

	prev, next *Block
	table      *Table
}

// Pinned reports whether the block is held by outstanding checkouts.
func (b *Block) Pinned() bool { return b.Ref > 0 }

// Evictable implements the paper's rule: a block is evictable iff it is not
// dirty and its reference count is zero.
func (b *Block) Evictable() bool { return b.Ref == 0 && b.Dirty.Empty() }

// Table is a fixed pool of physical blocks with an LRU replacement policy.
type Table struct {
	blockSize int
	home      bool
	byID      map[int64]*Block
	// LRU list with sentinel: head.next is least recently used.
	head, tail Block
	nblocks    int
	allocated  int // physical blocks created since NewTable or the last Release
	mapped     int // blocks currently mapped into the global view

	// Evictions counts completed evictions, for tests and the profiler.
	Evictions uint64
}

// NewTable creates a table of nblocks physical blocks of blockSize bytes.
// A cache block takes its storage from the process-wide pool when it is
// first assigned, so a large configured cache costs host memory only for
// blocks actually touched, and Release returns it. If home is true the
// blocks are home blocks (no Valid tracking, storage supplied by the
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
	t.head.next = &t.tail
	t.tail.prev = &t.head
	return t
}

// BlockSize returns the block size in bytes.
func (t *Table) BlockSize() int { return t.blockSize }

// Capacity returns the number of physical blocks in the pool.
func (t *Table) Capacity() int { return t.nblocks }

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
// evicted physical block if necessary (GetMemBlock in Fig. 4). The second
// result is the evicted victim (nil if none): the caller must unmap it and
// discard any cached state before reusing the returned block, whose Valid
// and Dirty sets are cleared and Mapped is false when newly assigned.
//
// Acquire fails with ErrNoEvictable if the pool is full and every block is
// pinned or dirty, and with ErrTooMuchCheckout if every block is pinned.
func (t *Table) Acquire(id int64) (blk *Block, evicted *Block, err error) {
	if b := t.byID[id]; b != nil {
		t.touch(b)
		return b, nil, nil
	}
	var b *Block
	if t.allocated < t.nblocks {
		b = &Block{ID: -1, table: t}
		if !t.home {
			b.Data = takeStorage(t.blockSize)
		}
		t.allocated++
		t.insertTail(b)
	} else {
		// Walk the LRU list head→tail for an evictable block (Fig. 4).
		allPinned := true
		for cur := t.head.next; cur != &t.tail; cur = cur.next {
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
	return b, evicted, nil
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

// HasDirty reports whether any block has dirty regions.
func (t *Table) HasDirty() bool {
	for cur := t.head.next; cur != &t.tail; cur = cur.next {
		if !cur.Dirty.Empty() {
			return true
		}
	}
	return false
}

// DirtyBlocks returns the blocks that have dirty regions, LRU order.
func (t *Table) DirtyBlocks() []*Block {
	var out []*Block
	for cur := t.head.next; cur != &t.tail; cur = cur.next {
		if !cur.Dirty.Empty() {
			out = append(out, cur)
		}
	}
	return out
}

// InvalidateAllExceptDirty clears valid regions but keeps dirty bytes
// valid (acquire fence self-invalidation, §4.4). Dirty bytes are this
// cache's own unreleased writes — under data-race-freedom no other rank can
// have released a conflicting write, so they are always at least as fresh
// as home memory, and clearing their valid bits would let a later fetch
// overwrite them (the invariant of Fig. 4 line 19: dirty ⊆ valid). The
// fence protocol writes a cache back before invalidating it, so no block is
// dirty here in practice; keeping dirty bytes valid makes the invalidation
// safe under any schedule regardless.
func (t *Table) InvalidateAllExceptDirty() {
	for cur := t.head.next; cur != &t.tail; cur = cur.next {
		cur.Valid.Clear()
		if !cur.Dirty.Empty() {
			cur.Valid.AddSet(&cur.Dirty)
		}
	}
}

// Release hands the table's block storage back to the process-wide pool
// and empties the table, as if it had just been created. A table that
// still holds a dirty or pinned block keeps everything: those bytes have
// not reached their home yet. A home table owns no storage and is left
// alone. The caller must hold no Block of the table across a Release.
func (t *Table) Release() {
	if t.home {
		return
	}
	for cur := t.head.next; cur != &t.tail; cur = cur.next {
		if !cur.Evictable() {
			return
		}
	}
	storage.mu.Lock()
	free := storage.free[t.blockSize]
	for cur := t.head.next; cur != &t.tail; cur = cur.next {
		free = append(free, cur.Data)
		cur.Data = nil
	}
	storage.free[t.blockSize] = free
	storage.mu.Unlock()
	clear(t.byID)
	t.head.next = &t.tail
	t.tail.prev = &t.head
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
	b.prev = t.tail.prev
	b.next = &t.tail
	t.tail.prev.next = b
	t.tail.prev = b
}

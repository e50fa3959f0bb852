// Package memblock manages the per-process physical memory blocks of the
// software cache: fixed pools of home and cache blocks, the blockID → block
// hash table, LRU eviction with reference counts, and the memory-mapping
// entry accounting of §4.3.2 of the paper.
package memblock

import (
	"errors"
	"fmt"

	"ityr/internal/region"
)

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
	// Data is the backing storage. For cache blocks it is owned by the
	// block; for home blocks it aliases the rank's home segment.
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
	// Prefetched marks a cache block whose bytes were speculatively
	// fetched by the pgas prefetcher and not yet touched by a demand
	// checkout. The table never modifies it — Acquire deliberately leaves
	// it alone when recycling a block, so the pgas layer can still read
	// the evicted identity's flag (an eviction of a still-set flag is a
	// wasted prefetch) before resetting it for the new identity.
	Prefetched bool

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
	allocated  int // physical blocks lazily allocated so far
	mapped     int // blocks currently mapped into the global view

	// Evictions counts completed evictions, for tests and the profiler.
	Evictions uint64
}

// NewTable creates a table of nblocks physical blocks of blockSize bytes.
// Backing storage is allocated lazily, so a large configured cache costs
// host memory only for blocks actually touched. If home is true the blocks
// are home blocks (no Valid tracking, storage supplied by the caller).
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
			b.Data = make([]byte, t.blockSize)
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

// ForEach calls fn for every block currently assigned an ID, in LRU order
// (least recently used first).
func (t *Table) ForEach(fn func(*Block)) {
	for cur := t.head.next; cur != &t.tail; cur = cur.next {
		if cur.ID >= 0 {
			fn(cur)
		}
	}
}

// DirtyBlocks returns the blocks that have dirty regions, LRU order.
func (t *Table) DirtyBlocks() []*Block {
	var out []*Block
	t.ForEach(func(b *Block) {
		if !b.Dirty.Empty() {
			out = append(out, b)
		}
	})
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
	t.ForEach(func(b *Block) {
		b.Valid.Clear()
		if !b.Dirty.Empty() {
			b.Valid.AddSet(&b.Dirty)
		}
	})
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

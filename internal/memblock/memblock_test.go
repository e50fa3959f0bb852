package memblock

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ityr/internal/region"
)

func TestAcquireAssignsAndReuses(t *testing.T) {
	tb := NewTable(4, 64, false)
	b1, ev, err := tb.Acquire(10)
	if err != nil || ev != nil {
		t.Fatalf("acquire: %v, evicted %v", err, ev)
	}
	if b1.ID != 10 || len(b1.Data) != 64 {
		t.Fatalf("block = %+v", b1)
	}
	b2, _, err := tb.Acquire(10)
	if err != nil || b2 != b1 {
		t.Fatalf("second acquire returned different block")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	tb := NewTable(2, 64, false)
	a, _, _ := tb.Acquire(1)
	b, _, _ := tb.Acquire(2)
	tb.Lookup(1) // touch 1: now 2 is LRU
	c, ev, err := tb.Acquire(3)
	if err != nil {
		t.Fatal(err)
	}
	if ev != b {
		t.Fatalf("evicted %v, want block for id 2", ev)
	}
	if c.ID != 3 || tb.Peek(2) != nil || tb.Peek(1) != a {
		t.Fatal("table state wrong after eviction")
	}
	if tb.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", tb.Evictions)
	}
}

func TestPinnedBlocksNotEvicted(t *testing.T) {
	tb := NewTable(2, 64, false)
	a, _, _ := tb.Acquire(1)
	b, _, _ := tb.Acquire(2)
	a.Ref++ // pin the LRU block
	c, ev, err := tb.Acquire(3)
	if err != nil {
		t.Fatal(err)
	}
	if ev != b || c.ID != 3 {
		t.Fatalf("evicted %+v, want unpinned block 2", ev)
	}
}

func TestAllPinnedReturnsTooMuchCheckout(t *testing.T) {
	tb := NewTable(2, 64, false)
	a, _, _ := tb.Acquire(1)
	b, _, _ := tb.Acquire(2)
	a.Ref++
	b.Ref++
	if _, _, err := tb.Acquire(3); err != ErrTooMuchCheckout {
		t.Fatalf("err = %v, want ErrTooMuchCheckout", err)
	}
}

func TestDirtyBlocksNotEvictable(t *testing.T) {
	tb := NewTable(2, 64, false)
	a, _, _ := tb.Acquire(1)
	b, _, _ := tb.Acquire(2)
	a.Dirty.Add(region.Interval{Lo: 0, Hi: 8})
	b.Dirty.Add(region.Interval{Lo: 0, Hi: 8})
	if _, _, err := tb.Acquire(3); err != ErrNoEvictable {
		t.Fatalf("err = %v, want ErrNoEvictable", err)
	}
	// After "writing back" (clearing dirty), acquisition succeeds.
	a.Dirty.Clear()
	b.Dirty.Clear()
	if _, _, err := tb.Acquire(3); err != nil {
		t.Fatalf("acquire after writeback: %v", err)
	}
}

func TestMappedAccounting(t *testing.T) {
	tb := NewTable(3, 64, false)
	a, _, _ := tb.Acquire(1)
	if !tb.SetMapped(a, true) {
		t.Fatal("first map should report a change")
	}
	if tb.SetMapped(a, true) {
		t.Fatal("re-map of mapped block should be a no-op")
	}
	if tb.MappedCount() != 1 {
		t.Fatalf("mapped = %d, want 1", tb.MappedCount())
	}
	tb.SetMapped(a, false)
	if tb.MappedCount() != 0 {
		t.Fatalf("mapped = %d, want 0", tb.MappedCount())
	}
}

func TestEvictionClearsMapping(t *testing.T) {
	tb := NewTable(1, 64, false)
	a, _, _ := tb.Acquire(1)
	tb.SetMapped(a, true)
	_, ev, err := tb.Acquire(2)
	if err != nil {
		t.Fatal(err)
	}
	if ev == nil || ev.Mapped || tb.MappedCount() != 0 {
		t.Fatalf("eviction did not unmap: evicted=%v mapped=%d", ev, tb.MappedCount())
	}
}

func TestAcquireClearsStaleState(t *testing.T) {
	tb := NewTable(1, 64, false)
	a, _, _ := tb.Acquire(1)
	a.Valid.Add(region.Interval{Lo: 0, Hi: 64})
	a.Data[0] = 0xFF
	b, ev, err := tb.Acquire(2)
	if err != nil || ev == nil {
		t.Fatalf("acquire: %v", err)
	}
	if !b.Valid.Empty() || !b.Dirty.Empty() || b.Ref != 0 {
		t.Fatal("reused block carries stale metadata")
	}
}

// TestInvalidateAllExceptDirty: invalidation clears every block's valid
// bytes except its dirty ones, which stay valid (dirty ⊆ valid).
func TestInvalidateAllExceptDirty(t *testing.T) {
	tb := NewTable(4, 64, false)
	for id := int64(0); id < 4; id++ {
		b, _, _ := tb.Acquire(id)
		tb.MarkValid(b, region.Interval{Lo: uint64(id) * 64, Hi: uint64(id)*64 + 64})
	}
	dirty := region.Interval{Lo: 8, Hi: 16}
	tb.MarkDirty(tb.Peek(0), dirty)
	tb.InvalidateAllExceptDirty()
	for id := int64(0); id < 4; id++ {
		b := tb.Peek(id)
		want := uint64(0)
		if id == 0 {
			want = dirty.Len()
		}
		if b.Valid.Bytes() != want || want > 0 && !b.Valid.Contains(dirty) {
			t.Fatalf("block %d valid %v after invalidate", id, b.Valid.Intervals())
		}
	}
}

func TestDirtyBlocksListing(t *testing.T) {
	tb := NewTable(4, 64, false)
	b0, _, _ := tb.Acquire(0)
	tb.Acquire(1)
	b2, _, _ := tb.Acquire(2)
	tb.MarkDirty(b0, region.Interval{Lo: 0, Hi: 4})
	tb.MarkDirty(b2, region.Interval{Lo: 128, Hi: 132})
	d := tb.DirtyBlocks()
	if len(d) != 2 || !tb.HasDirty() {
		t.Fatalf("dirty blocks = %d, HasDirty %v; want 2, true", len(d), tb.HasDirty())
	}
	b0.Dirty.Clear()
	b2.Dirty.Clear()
	if tb.HasDirty() {
		t.Fatal("HasDirty after every dirty region was cleared")
	}
}

func TestHasDirtyAllocatesNothing(t *testing.T) {
	tb := NewTable(4, 64, false)
	for id := int64(0); id < 4; id++ {
		tb.Acquire(id)
	}
	if n := testing.AllocsPerRun(100, func() { tb.HasDirty() }); n != 0 {
		t.Fatalf("HasDirty allocates %v times per call", n)
	}
}

func TestLazyAllocation(t *testing.T) {
	tb := NewTable(1000000, 65536, false) // 64 GB if eagerly allocated
	tb.Acquire(42)
	if tb.allocated != 1 {
		t.Fatalf("allocated = %d, want 1", tb.allocated)
	}
}

func TestHomeTableHasNoBacking(t *testing.T) {
	tb := NewTable(2, 64, true)
	b, _, _ := tb.Acquire(7)
	if b.Data != nil {
		t.Fatal("home table must not allocate backing storage")
	}
}

// TestReleaseRecyclesStorage: a released table's storage is what the next
// Acquire of that block size gets, bytes and all (storage is never
// zeroed), and the released table is empty.
func TestReleaseRecyclesStorage(t *testing.T) {
	a := NewTable(2, 96, false)
	blk, _, _ := a.Acquire(3)
	a.SetMapped(blk, true)
	blk.Data[5] = 0xA5
	backing := &blk.Data[0]
	a.Release()
	if blk.Data != nil || a.Peek(3) != nil || a.MappedCount() != 0 || a.allocated != 0 {
		t.Fatalf("released table not empty: data %v, peek %v, mapped %d, allocated %d",
			blk.Data != nil, a.Peek(3), a.MappedCount(), a.allocated)
	}
	b := NewTable(2, 96, false)
	got, _, _ := b.Acquire(9)
	if &got.Data[0] != backing || got.Data[5] != 0xA5 {
		t.Fatal("Acquire after Release did not reuse the released backing array")
	}
	if !got.Valid.Empty() || !got.Dirty.Empty() || got.Ref != 0 || got.Mapped {
		t.Fatal("recycled storage came with stale block metadata")
	}
	// The emptied table works from scratch.
	if again, _, err := a.Acquire(3); err != nil || len(again.Data) != 96 {
		t.Fatalf("Acquire on a released table: %v", err)
	}
}

// TestReleaseSkipsHomeTables: a home table owns no storage, so releasing
// it pools nothing and keeps its blocks.
func TestReleaseSkipsHomeTables(t *testing.T) {
	h := NewTable(2, 80, true)
	h.Acquire(1)
	h.Release()
	if h.Peek(1) == nil {
		t.Fatal("home table emptied by Release")
	}
	b, _, _ := NewTable(1, 80, false).Acquire(1)
	if len(b.Data) != 80 {
		t.Fatalf("cache block after a home-table Release has %d bytes, want 80", len(b.Data))
	}
}

// TestReleaseKeepsDirtyOrPinnedTables: a table whose bytes have not all
// reached home keeps all of its storage.
func TestReleaseKeepsDirtyOrPinnedTables(t *testing.T) {
	for _, tc := range []struct {
		name string
		hold func(*Block)
	}{
		{"dirty", func(b *Block) { b.Dirty.Add(region.Interval{Lo: 0, Hi: 8}) }},
		{"pinned", func(b *Block) { b.Ref++ }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := NewTable(2, 112, false)
			clean, _, _ := tb.Acquire(1)
			held, _, _ := tb.Acquire(2)
			tc.hold(held)
			held.Data[0] = 7
			tb.Release()
			if tb.Peek(1) != clean || tb.Peek(2) != held || clean.Data == nil || held.Data[0] != 7 {
				t.Fatal("a table holding a dirty or pinned block gave up storage")
			}
			other, _, _ := NewTable(1, 112, false).Acquire(1)
			if &other.Data[0] == &held.Data[0] || &other.Data[0] == &clean.Data[0] {
				t.Fatal("the pool handed out storage a kept table still uses")
			}
		})
	}
}

// TestPoolConcurrentTables: tables on separate goroutines share the pool
// (make race runs this under the race detector); no two live blocks ever
// share storage.
func TestPoolConcurrentTables(t *testing.T) {
	const workers, rounds, blocks = 4, 50, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w byte) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				tb := NewTable(blocks, 128, false)
				for id := int64(0); id < blocks; id++ {
					b, _, _ := tb.Acquire(id)
					for i := range b.Data {
						b.Data[i] = w
					}
				}
				for id := int64(0); id < blocks; id++ {
					for _, v := range tb.Peek(id).Data {
						if v != w {
							t.Errorf("worker %d: block storage shared with another table", w)
							return
						}
					}
				}
				tb.Release()
			}
		}(byte(w))
	}
	wg.Wait()
}

// refDirty is the walk HasDirty and DirtyBlocks made before the table kept
// a dirty list: every resident block, in LRU order, whose Dirty set is
// non-empty.
func refDirty(t *Table) map[*Block]bool {
	out := make(map[*Block]bool)
	for cur := t.lru.next; cur != &t.lru; cur = cur.next {
		if !cur.Dirty.Empty() {
			out[cur] = true
		}
	}
	return out
}

// TestBlockListsMatchFullWalk drives seeded random sequences of the
// operations the cache performs on a table (Acquire with its evictions,
// MarkValid, MarkDirty, a write-back's Dirty.Subtract, pinning,
// InvalidateAllExceptDirty, Release) and checks after every step that the
// dirty and valid lists answer what a walk over every resident block
// answers: HasDirty, the set DirtyBlocks returns, and each block's Valid
// set after an invalidation.
func TestBlockListsMatchFullWalk(t *testing.T) {
	const nblocks, bs, nids, steps = 6, 64, 12, 400
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable(nblocks, bs, false)
		var pinned []*Block
		// resident picks a random block holding an ID, or nil.
		resident := func() *Block {
			if len(tb.byID) == 0 {
				return nil
			}
			id := int64(rng.Intn(nids))
			for tb.Peek(id) == nil {
				id = (id + 1) % nids
			}
			return tb.Peek(id)
		}
		interval := func(b *Block) region.Interval {
			lo := rng.Intn(bs)
			hi := lo + 1 + rng.Intn(bs-lo)
			base := uint64(b.ID) * bs
			return region.Interval{Lo: base + uint64(lo), Hi: base + uint64(hi)}
		}
		for step := 0; step < steps; step++ {
			op := rng.Intn(100)
			switch b := resident(); {
			case op < 25:
				tb.Acquire(int64(rng.Intn(nids)))
			case op < 45 && b != nil:
				tb.MarkValid(b, interval(b))
			case op < 60 && b != nil:
				iv := interval(b)
				tb.MarkDirty(b, iv)
				tb.MarkValid(b, iv)
			case op < 70 && b != nil:
				tb.MarkDirty(b, interval(b))
			case op < 82 && b != nil:
				b.Dirty.Subtract(interval(b))
			case op < 87 && b != nil:
				b.Ref++
				pinned = append(pinned, b)
			case op < 92 && len(pinned) > 0:
				i := rng.Intn(len(pinned))
				pinned[i].Ref--
				pinned = append(pinned[:i], pinned[i+1:]...)
			case op < 98:
				tb.InvalidateAllExceptDirty()
				for cur := tb.lru.next; cur != &tb.lru; cur = cur.next {
					if !slices.Equal(cur.Valid.Intervals(), cur.Dirty.Intervals()) {
						t.Fatalf("seed %d step %d: block %d valid %v after invalidation, dirty %v",
							seed, step, cur.ID, cur.Valid.Intervals(), cur.Dirty.Intervals())
					}
				}
			default:
				tb.Release()
				if tb.allocated == 0 {
					pinned = pinned[:0]
				}
			}
			want := refDirty(tb)
			if got := tb.HasDirty(); got != (len(want) > 0) {
				t.Fatalf("seed %d step %d: HasDirty %v, full walk finds %d dirty blocks", seed, step, got, len(want))
			}
			got := tb.DirtyBlocks()
			seen := make(map[*Block]bool)
			for _, b := range got {
				if seen[b] || !want[b] {
					t.Fatalf("seed %d step %d: DirtyBlocks lists block %d twice or clean", seed, step, b.ID)
				}
				seen[b] = true
			}
			if len(seen) != len(want) {
				t.Fatalf("seed %d step %d: DirtyBlocks has %d blocks, full walk %d", seed, step, len(seen), len(want))
			}
			for cur := tb.lru.next; cur != &tb.lru; cur = cur.next {
				if !cur.Valid.Empty() && !cur.onValid {
					t.Fatalf("seed %d step %d: block %d valid but not on the valid list", seed, step, cur.ID)
				}
			}
		}
	}
}

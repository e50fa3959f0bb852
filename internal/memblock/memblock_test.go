package memblock

import (
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
// bytes except its dirty ones, which stay valid (dirty ⊆ valid), and
// counts and clears the prefetched marks.
func TestInvalidateAllExceptDirty(t *testing.T) {
	tb := NewTable(4, 64, false)
	for id := int64(0); id < 4; id++ {
		b, _, _ := tb.Acquire(id)
		b.Valid.Add(region.Interval{Lo: uint64(id) * 64, Hi: uint64(id)*64 + 64})
		b.Prefetched = id%2 == 1
	}
	dirty := region.Interval{Lo: 8, Hi: 16}
	tb.Peek(0).Dirty.Add(dirty)
	if n := tb.InvalidateAllExceptDirty(); n != 2 {
		t.Fatalf("InvalidateAllExceptDirty counted %d prefetched blocks, want 2", n)
	}
	for id := int64(0); id < 4; id++ {
		b := tb.Peek(id)
		want := uint64(0)
		if id == 0 {
			want = dirty.Len()
		}
		if b.Valid.Bytes() != want || want > 0 && !b.Valid.Contains(dirty) {
			t.Fatalf("block %d valid %v after invalidate", id, b.Valid.Intervals())
		}
		if b.Prefetched {
			t.Fatalf("block %d still marked prefetched", id)
		}
	}
}

func TestDirtyBlocksListing(t *testing.T) {
	tb := NewTable(4, 64, false)
	b0, _, _ := tb.Acquire(0)
	tb.Acquire(1)
	b2, _, _ := tb.Acquire(2)
	b0.Dirty.Add(region.Interval{Lo: 0, Hi: 4})
	b2.Dirty.Add(region.Interval{Lo: 128, Hi: 132})
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

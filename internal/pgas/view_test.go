package pgas

import (
	"bytes"
	"testing"
	"unsafe"
)

// TestFenceInsideWriteCheckoutRelistsBlock: an acquire fence between a
// Write checkout and its checkin takes the block off the cache's valid
// list; the checkin's re-validation must put it back, or a later acquire
// would keep the written bytes valid past another rank's newer write. Rank
// 0 writes rank 1's block with a fence inside the checkout, releases, rank 1
// then writes the block at home, and rank 0 must read rank 1's bytes after
// its next acquire.
func TestFenceInsideWriteCheckoutRelistsBlock(t *testing.T) {
	for _, pol := range []Policy{WriteThrough, WriteBack, WriteBackLazy} {
		t.Run(pol.String(), func(t *testing.T) {
			testCluster(t, 2, 1, smallCfg(pol), func(l *Local) {
				if l.Rank().ID() == 1 {
					l.Rank().Barrier() // A: rank 0 wrote and released
					if err := l.Put(bytes.Repeat([]byte{0x77}, 8), shared[0]); err != nil {
						t.Error(err)
					}
					l.Rank().Barrier() // B: the home holds the newer bytes
					return
				}
				// One block per rank: the block at base+256 is homed on rank 1.
				blk := l.AllocCollective(512, BlockDist) + 256
				shared[0] = blk
				v, err := l.Checkout(blk, 8, Write)
				if err != nil {
					t.Fatal(err)
				}
				l.AcquireFence()
				copy(v, bytes.Repeat([]byte{0x11}, 8))
				if err := l.Checkin(blk, 8, Write); err != nil {
					t.Fatal(err)
				}
				l.ReleaseFence()
				l.Rank().Barrier() // A
				l.Rank().Barrier() // B
				l.AcquireFence()
				got, err := l.Checkout(blk, 8, Read)
				if err != nil {
					t.Fatal(err)
				}
				if want := bytes.Repeat([]byte{0x77}, 8); !bytes.Equal(got, want) {
					t.Errorf("read after acquire = %x, want the home's newer %x", got, want)
				}
				l.Checkin(blk, 8, Read)
			})
		})
	}
}

// TestOneBlockViewIsBlockStorage: a checkout that lies in one cache block
// hands out the block's own bytes, capped at the checked-out length; one
// that spans two cache blocks is staged through a copy of its own.
func TestOneBlockViewIsBlockStorage(t *testing.T) {
	testCluster(t, 2, 1, smallCfg(WriteBack), func(l *Local) {
		if l.Rank().ID() == 1 {
			l.Rank().Barrier()
			return
		}
		// Two 256-byte blocks per rank: blocks 2 and 3 are homed on rank 1.
		base := l.AllocCollective(1024, BlockDist)
		one, err := l.Checkout(base+512+8, 16, Read)
		if err != nil {
			t.Fatal(err)
		}
		cb := l.cache.Peek(int64(base+512) / 256)
		if &one[0] != &cb.Data[8] || cap(one) != 16 {
			t.Errorf("one-block view is not the block's bytes [8,24): same start %v, cap %d",
				&one[0] == &cb.Data[8], cap(one))
		}
		l.Checkin(base+512+8, 16, Read)

		two, err := l.Checkout(base+512+128, 256, Read)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []int64{2, 3} {
			d := l.cache.Peek(int64(base)/256 + id).Data
			lo, hi := uintptr(unsafe.Pointer(&d[0])), uintptr(unsafe.Pointer(&d[len(d)-1]))
			if p := uintptr(unsafe.Pointer(&two[0])); p >= lo && p <= hi {
				t.Errorf("two-block view starts inside cache block %d", id)
			}
		}
		l.Checkin(base+512+128, 256, Read)
		l.Rank().Barrier()
	})
}

// TestOneBlockReadHitAllocatesNothing: a Read checkout and checkin of a
// warm one-block region touch no host allocator: no view is staged.
func TestOneBlockReadHitAllocatesNothing(t *testing.T) {
	var allocs float64
	testCluster(t, 2, 1, smallCfg(WriteBackLazy), func(l *Local) {
		if l.Rank().ID() == 1 {
			l.Rank().Barrier()
			return
		}
		blk := l.AllocCollective(512, BlockDist) + 256
		l.Checkout(blk, 64, Read)
		l.Checkin(blk, 64, Read)
		allocs = testing.AllocsPerRun(100, func() {
			l.Checkout(blk, 64, Read)
			l.Checkin(blk, 64, Read)
		})
		l.Rank().Barrier()
	})
	if allocs != 0 {
		t.Fatalf("one-block Read hit allocates %v times per checkout/checkin", allocs)
	}
}

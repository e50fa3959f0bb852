package pgas

import (
	"errors"
	"testing"
)

func TestCollectiveAllocNonDivisibleSizes(t *testing.T) {
	testCluster(t, 3, 1, smallCfg(WriteBack), func(l *Local) {
		if l.Rank().ID() != 0 {
			l.Rank().Barrier()
			return
		}
		// 1000 bytes over 3 ranks with 256-byte blocks: chunk = 512.
		base := l.AllocCollective(1000, BlockDist)
		for off := uint64(0); off < 1000; off += 100 {
			if _, err := l.Space().HomeRank(base + Addr(off)); err != nil {
				t.Errorf("offset %d unresolvable: %v", off, err)
			}
		}
		// Every byte of the requested size must be writable.
		v, err := l.Checkout(base, 1000, Write)
		if err != nil {
			t.Fatal(err)
		}
		for i := range v {
			v[i] = byte(i)
		}
		l.Checkin(base, 1000, Write)
		l.Rank().Barrier()
	})
}

// TestBlockCyclicSegmentsHoldOwnedBlocks pins the window geometry of a
// block-cyclic allocation: a rank's segment holds exactly the blocks it
// owns (none, when there are fewer blocks than ranks), and every address
// of the allocation resolves inside its home rank's segment.
func TestBlockCyclicSegmentsHoldOwnedBlocks(t *testing.T) {
	const n = 4
	const bs = 256 // smallCfg's block size
	for _, tc := range []struct {
		name string
		size uint64
	}{
		{"one byte", 1},
		{"fewer blocks than ranks", 2 * bs},
		{"one block per rank", n * bs},
		{"more blocks, not a multiple of the ranks", (2*n+3)*bs - 7},
		{"a multiple of the ranks", 3 * n * bs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testCluster(t, n, 1, smallCfg(WriteBack), func(l *Local) {
				if l.Rank().ID() != 0 {
					return
				}
				base := l.AllocCollective(tc.size, BlockCyclicDist)
				a, err := l.Space().findAlloc(base, tc.size)
				if err != nil {
					t.Error(err)
					return
				}
				total := 0
				for r := 0; r < n; r++ {
					total += len(a.win.Seg(r))
				}
				if want := int(align(tc.size, bs)); total != want {
					t.Errorf("segments hold %d bytes, want %d", total, want)
				}
				for off := uint64(0); off < a.size; off++ {
					rank, segOff := a.homeOf(base+Addr(off), bs)
					if want := int(off / bs % n); rank != want {
						t.Errorf("offset %d homed on rank %d, want %d", off, rank, want)
						return
					}
					if segOff >= len(a.win.Seg(rank)) {
						t.Errorf("offset %d resolves to byte %d of rank %d's %d-byte segment",
							off, segOff, rank, len(a.win.Seg(rank)))
						return
					}
				}
			})
		})
	}
}

func TestFreeCollective(t *testing.T) {
	testCluster(t, 2, 1, smallCfg(WriteBack), func(l *Local) {
		if l.Rank().ID() != 0 {
			l.Rank().Barrier()
			return
		}
		base := l.AllocCollective(512, BlockCyclicDist)
		if err := l.FreeCollective(base); err != nil {
			t.Fatal(err)
		}
		// Access after free must fail.
		if _, err := l.Checkout(base, 16, Read); err == nil {
			t.Error("checkout of freed allocation succeeded")
		}
		// Double free and bogus free must fail.
		if err := l.FreeCollective(base); err == nil {
			t.Error("double free succeeded")
		}
		if err := l.FreeCollective(0xDEAD); err == nil {
			t.Error("bogus free succeeded")
		}
		l.Rank().Barrier()
	})
}

func TestOutOfRangeAccess(t *testing.T) {
	testCluster(t, 2, 1, smallCfg(WriteBack), func(l *Local) {
		if l.Rank().ID() != 0 {
			l.Rank().Barrier()
			return
		}
		if _, err := l.Checkout(0x1234, 16, Read); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("unmapped checkout: %v", err)
		}
		base := l.AllocCollective(256, BlockDist)
		// Reading past the (block-padded) end of an allocation fails.
		if _, err := l.Checkout(base, 1<<20, Read); err == nil {
			t.Error("oversized checkout succeeded")
		}
		if _, err := l.Space().HomeRank(7); !errors.Is(err, ErrOutOfRange) {
			t.Error("HomeRank of garbage succeeded")
		}
		l.Rank().Barrier()
	})
}

// TestCheckoutOfFreedArray: a checkout of a freed collective range fails
// with ErrOutOfRange, validated or not. Rank 1 leaves a write to a block
// homed on the other node unreleased, rank 0 frees the array, and rank 2
// reads the block: the validator checks only live allocations, and the
// free dropped the array's write ledger, so the stale write is not
// reported as an unreleased-write.
func TestCheckoutOfFreedArray(t *testing.T) {
	for _, validate := range []bool{false, true} {
		cfg := smallCfg(WriteBack)
		cfg.Validate = validate
		var base Addr
		s := testCluster(t, 4, 2, cfg, func(l *Local) {
			me := l.Rank().ID()
			if me == 0 {
				base = l.AllocCollective(4*256, BlockCyclicDist)
			}
			l.Rank().Barrier()
			blk := base + 3*256 // homed on rank 3, off rank 1's node
			if me == 1 {
				if _, err := l.Checkout(blk, 64, Write); err != nil {
					t.Fatal(err)
				}
				if err := l.Checkin(blk, 64, Write); err != nil {
					t.Fatal(err)
				}
			}
			l.Rank().Barrier()
			if me == 0 {
				if err := l.FreeCollective(base); err != nil {
					t.Fatal(err)
				}
			}
			l.Rank().Barrier()
			if me == 2 {
				if _, err := l.Checkout(blk, 64, Read); !errors.Is(err, ErrOutOfRange) {
					t.Errorf("validate=%v: checkout of a freed array: %v, want ErrOutOfRange", validate, err)
				}
			}
			l.Rank().Barrier()
		})
		if v := s.Violations(); len(v) != 0 {
			t.Errorf("validate=%v: violations %+v, want none", validate, v)
		}
	}
}

func TestFreeLocalBadAddr(t *testing.T) {
	testCluster(t, 2, 1, smallCfg(WriteBack), func(l *Local) {
		if l.Rank().ID() == 0 {
			if err := l.FreeLocal(0x100, 16); !errors.Is(err, ErrBadFree) {
				t.Errorf("free of collective-range addr: %v", err)
			}
			if err := l.FreeLocal(l.AllocCollective(256, BlockDist), 16); !errors.Is(err, ErrBadFree) {
				t.Errorf("free of a live collective allocation: %v", err)
			}
			if err := l.FreeLocal(ncBase+2*ncSpan, 16); !errors.Is(err, ErrBadFree) {
				t.Errorf("free past the last rank's noncollective region: %v", err)
			}
			// A double free is refused, so two later allocations of the
			// size class cannot both be handed the one block.
			a := l.AllocLocal(64)
			if err := l.FreeLocal(a, 64); err != nil {
				t.Fatalf("first free: %v", err)
			}
			if err := l.FreeLocal(a, 64); !errors.Is(err, ErrBadFree) {
				t.Errorf("double free: %v", err)
			}
			if x, y := l.AllocLocal(64), l.AllocLocal(64); x == y {
				t.Errorf("two live allocations share address %#x", x)
			}
			// A free of a live block's interior that runs past the last
			// block handed out, and one of an address never handed out.
			b := l.AllocLocal(64)
			if err := l.FreeLocal(b+16, 64); !errors.Is(err, ErrBadFree) {
				t.Errorf("free of a live block's interior: %v", err)
			}
			if err := l.FreeLocal(b+64, 16); !errors.Is(err, ErrBadFree) {
				t.Errorf("free of a never-allocated address: %v", err)
			}
			if err := l.FreeLocal(b, 64); err != nil {
				t.Errorf("free of the live block: %v", err)
			}
		}
		l.Rank().Barrier()
	})
}

func TestManyAllocationsResolveCorrectly(t *testing.T) {
	// Interleave collective and noncollective allocations and verify that
	// address resolution never confuses them.
	testCluster(t, 4, 2, smallCfg(WriteBackLazy), func(l *Local) {
		if l.Rank().ID() != 0 {
			l.Rank().Barrier()
			return
		}
		var colls []Addr
		var locals []Addr
		for i := 0; i < 10; i++ {
			colls = append(colls, l.AllocCollective(uint64(100+i*37), BlockCyclicDist))
			locals = append(locals, l.AllocLocal(uint64(50+i*13)))
		}
		for i, a := range colls {
			v, err := l.Checkout(a, uint64(100+i*37), Write)
			if err != nil {
				t.Fatalf("collective %d: %v", i, err)
			}
			for j := range v {
				v[j] = byte(i)
			}
			l.Checkin(a, uint64(100+i*37), Write)
		}
		for i, a := range locals {
			v, err := l.Checkout(a, uint64(50+i*13), Write)
			if err != nil {
				t.Fatalf("local %d: %v", i, err)
			}
			for j := range v {
				v[j] = byte(100 + i)
			}
			l.Checkin(a, uint64(50+i*13), Write)
		}
		// Verify nothing overwrote anything else.
		for i, a := range colls {
			v, _ := l.Checkout(a, uint64(100+i*37), Read)
			for j := range v {
				if v[j] != byte(i) {
					t.Fatalf("collective %d corrupted at %d", i, j)
				}
			}
			l.Checkin(a, uint64(100+i*37), Read)
		}
		for i, a := range locals {
			v, _ := l.Checkout(a, uint64(50+i*13), Read)
			for j := range v {
				if v[j] != byte(100+i) {
					t.Fatalf("local %d corrupted at %d", i, j)
				}
			}
			l.Checkin(a, uint64(50+i*13), Read)
		}
		l.Rank().Barrier()
	})
}

func TestOverlappingReadCheckoutsSameRank(t *testing.T) {
	// §3.3: within one process, multiple simultaneous checkouts of the
	// same region are allowed.
	testCluster(t, 2, 1, smallCfg(WriteBack), func(l *Local) {
		if l.Rank().ID() != 0 {
			l.Rank().Barrier()
			return
		}
		base := l.AllocCollective(512, BlockDist)
		v, _ := l.Checkout(base, 512, Write)
		for i := range v {
			v[i] = 9
		}
		l.Checkin(base, 512, Write)

		a, err1 := l.Checkout(base, 256, Read)
		b, err2 := l.Checkout(base+128, 256, Read) // overlapping
		if err1 != nil || err2 != nil {
			t.Fatalf("overlapping reads failed: %v %v", err1, err2)
		}
		if a[200] != 9 || b[0] != 9 {
			t.Error("overlapping views differ from written data")
		}
		l.Checkin(base+128, 256, Read)
		l.Checkin(base, 256, Read)
		if l.OutstandingCheckouts() != 0 {
			t.Errorf("outstanding = %d", l.OutstandingCheckouts())
		}
		l.Rank().Barrier()
	})
}

func TestEpochMonotonicity(t *testing.T) {
	testCluster(t, 2, 1, smallCfg(WriteBackLazy), func(l *Local) {
		if l.Rank().ID() == 0 {
			shared[0] = l.AllocCollective(256, BlockDist)
		}
		l.Rank().Barrier()
		if l.Rank().ID() == 1 {
			prev := l.CurrentEpoch()
			for i := 0; i < 5; i++ {
				v, _ := l.Checkout(shared[0], 16, ReadWrite)
				v[0]++
				l.Checkin(shared[0], 16, ReadWrite)
				l.ReleaseFence()
				cur := l.CurrentEpoch()
				if cur <= prev {
					t.Errorf("epoch not monotone: %d -> %d", prev, cur)
				}
				prev = cur
			}
		}
		l.Rank().Barrier()
	})
}

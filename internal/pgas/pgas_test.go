package pgas

import (
	"bytes"
	"math/rand"
	"testing"

	"ityr/internal/memblock"
	"ityr/internal/netmodel"
	"ityr/internal/rma"
	"ityr/internal/sim"
)

// testCluster runs body once per rank under the simulator.
func testCluster(t *testing.T, nranks, coresPerNode int, cfg Config, body func(l *Local)) *Space {
	t.Helper()
	e := sim.NewEngine()
	c := rma.New(e, nranks, netmodel.Default(coresPerNode))
	s := New(c, cfg)
	for i := 0; i < nranks; i++ {
		l := s.Local(i)
		e.Spawn("rank", func(p *sim.Proc) {
			l.Rank().Attach(p)
			body(l)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return s
}

func smallCfg(p Policy) Config {
	return Config{BlockSize: 256, SubBlockSize: 64, CacheSize: 4096, Policy: p}
}

func TestBlockDistributionHomes(t *testing.T) {
	testCluster(t, 4, 1, smallCfg(WriteBack), func(l *Local) {
		if l.Rank().ID() != 0 {
			l.Rank().Barrier()
			return
		}
		base := l.AllocCollective(4096, BlockDist)
		// chunk = align(1024, 256) = 1024 bytes per rank
		for r := 0; r < 4; r++ {
			h, err := l.Space().HomeRank(base + Addr(r*1024))
			if err != nil || h != r {
				t.Errorf("home of chunk %d = %d (%v), want %d", r, h, err, r)
			}
		}
		l.Rank().Barrier()
	})
}

func TestBlockCyclicDistributionHomes(t *testing.T) {
	testCluster(t, 4, 1, smallCfg(WriteBack), func(l *Local) {
		if l.Rank().ID() != 0 {
			l.Rank().Barrier()
			return
		}
		base := l.AllocCollective(4096, BlockCyclicDist)
		// blocks of 256 bytes round-robin over 4 ranks
		for b := 0; b < 16; b++ {
			h, err := l.Space().HomeRank(base + Addr(b*256))
			if err != nil || h != b%4 {
				t.Errorf("home of block %d = %d (%v), want %d", b, h, err, b%4)
			}
		}
		l.Rank().Barrier()
	})
}

func TestGetPutSpanHomeBoundaries(t *testing.T) {
	testCluster(t, 4, 1, smallCfg(NoCache), func(l *Local) {
		if l.Rank().ID() != 0 {
			l.Rank().Barrier()
			return
		}
		base := l.AllocCollective(4096, BlockCyclicDist)
		src := make([]byte, 1000)
		for i := range src {
			src[i] = byte(i * 7)
		}
		if err := l.Put(src, base+100); err != nil { // spans 5 home blocks
			t.Fatal(err)
		}
		got, err := l.Get(base+100, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, src) {
			t.Error("Get after Put mismatch across home boundaries")
		}
		l.Rank().Barrier()
	})
}

func TestCheckoutRoundTripAllPolicies(t *testing.T) {
	for _, pol := range Policies {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			testCluster(t, 4, 1, smallCfg(pol), func(l *Local) {
				if l.Rank().ID() != 0 {
					l.Rank().Barrier()
					return
				}
				base := l.AllocCollective(2048, BlockCyclicDist)
				v, err := l.Checkout(base, 2048, Write)
				if err != nil {
					t.Fatal(err)
				}
				for i := range v {
					v[i] = byte(i)
				}
				if err := l.Checkin(base, 2048, Write); err != nil {
					t.Fatal(err)
				}
				l.ReleaseFence()
				l.AcquireFence()
				v, err = l.Checkout(base, 2048, Read)
				if err != nil {
					t.Fatal(err)
				}
				for i := range v {
					if v[i] != byte(i) {
						t.Fatalf("policy %v: byte %d = %d, want %d", pol, i, v[i], byte(i))
					}
				}
				if err := l.Checkin(base, 2048, Read); err != nil {
					t.Fatal(err)
				}
				l.Rank().Barrier()
			})
		})
	}
}

func TestCacheHitAvoidsRefetch(t *testing.T) {
	s := testCluster(t, 2, 1, smallCfg(WriteBack), func(l *Local) {
		if l.Rank().ID() != 1 {
			l.Rank().Barrier()
			return
		}
		base := ncBase // rank 0's noncollective region
		_ = base
		l.Rank().Barrier()
	})
	_ = s
	// A more direct version: rank 1 reads rank 0's memory twice.
	var fetchesAfterFirst, fetchesAfterSecond uint64
	s2 := testCluster(t, 2, 1, smallCfg(WriteBack), func(l *Local) {
		if l.Rank().ID() == 0 {
			addr := l.AllocLocal(512)
			v, _ := l.Checkout(addr, 512, Write)
			for i := range v {
				v[i] = 42
			}
			l.Checkin(addr, 512, Write)
			l.ReleaseFence()
			shared[0] = addr
			l.Rank().Barrier()
			l.Rank().Barrier()
			return
		}
		l.Rank().Barrier()
		addr := shared[0]
		l.AcquireFence()
		if _, err := l.Checkout(addr, 512, Read); err != nil {
			t.Fatal(err)
		}
		l.Checkin(addr, 512, Read)
		fetchesAfterFirst = l.Space().Stats.FetchOps
		if _, err := l.Checkout(addr, 512, Read); err != nil {
			t.Fatal(err)
		}
		l.Checkin(addr, 512, Read)
		fetchesAfterSecond = l.Space().Stats.FetchOps
		l.Rank().Barrier()
	})
	_ = s2
	if fetchesAfterFirst == 0 {
		t.Fatal("first remote checkout did not fetch")
	}
	if fetchesAfterSecond != fetchesAfterFirst {
		t.Fatalf("second checkout fetched again: %d -> %d", fetchesAfterFirst, fetchesAfterSecond)
	}
}

// shared passes addresses between ranks in tests (engine-global state).
var shared [8]Addr

func TestWriteBackInvisibleUntilRelease(t *testing.T) {
	testCluster(t, 2, 1, smallCfg(WriteBack), func(l *Local) {
		if l.Rank().ID() == 0 {
			base := l.AllocCollective(256, BlockDist) // homed on rank 0
			shared[0] = base
			// Write via rank 0's cache? Rank 0 is the home: writes are
			// direct. Use rank 1 as the writer instead below.
			l.Rank().Barrier() // A: alloc ready
			l.Rank().Barrier() // B: rank 1 wrote (no release)
			got, _ := l.Checkout(base, 1, Read)
			if got[0] != 0 {
				t.Error("dirty write leaked to home before release")
			}
			l.Checkin(base, 1, Read)
			l.Rank().Barrier() // C: let rank 1 release
			l.Rank().Barrier() // D: release done
			l.AcquireFence()
			got, _ = l.Checkout(base, 1, Read)
			if got[0] != 99 {
				t.Errorf("after release+acquire got %d, want 99", got[0])
			}
			l.Checkin(base, 1, Read)
			l.Rank().Barrier()
			return
		}
		l.Rank().Barrier() // A
		base := shared[0]
		v, err := l.Checkout(base, 1, ReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		v[0] = 99
		l.Checkin(base, 1, ReadWrite)
		l.Rank().Barrier() // B
		l.Rank().Barrier() // C
		l.ReleaseFence()
		l.Rank().Barrier() // D
		l.Rank().Barrier()
	})
}

func TestWriteThroughVisibleAfterCheckin(t *testing.T) {
	testCluster(t, 2, 1, smallCfg(WriteThrough), func(l *Local) {
		if l.Rank().ID() == 0 {
			base := l.AllocCollective(256, BlockDist)
			shared[0] = base
			l.Rank().Barrier() // alloc ready
			l.Rank().Barrier() // rank 1 checked in
			got, _ := l.Checkout(base, 1, Read)
			if got[0] != 7 {
				t.Errorf("write-through data not at home: got %d, want 7", got[0])
			}
			l.Checkin(base, 1, Read)
			l.Rank().Barrier()
			return
		}
		l.Rank().Barrier()
		v, _ := l.Checkout(shared[0], 1, ReadWrite)
		v[0] = 7
		l.Checkin(shared[0], 1, ReadWrite)
		l.Rank().Barrier()
		l.Rank().Barrier()
	})
}

func TestSubBlockFetchGranularity(t *testing.T) {
	s := testCluster(t, 2, 1, smallCfg(WriteBack), func(l *Local) {
		if l.Rank().ID() == 0 {
			base := l.AllocCollective(1024, BlockDist) // all homed on rank 0
			shared[0] = base
			l.Rank().Barrier()
			l.Rank().Barrier()
			return
		}
		l.Rank().Barrier()
		// Read a single byte: the fetch should be one 64-byte sub-block.
		l.Checkout(shared[0]+3, 1, Read)
		l.Checkin(shared[0]+3, 1, Read)
		l.Rank().Barrier()
	})
	if s.Stats.FetchOps != 1 || s.Stats.FetchBytes != 64 {
		t.Fatalf("fetched %d ops / %d bytes, want 1 op / 64 bytes", s.Stats.FetchOps, s.Stats.FetchBytes)
	}
}

func TestEvictionUnderPressureKeepsData(t *testing.T) {
	// Cache of 4 KiB (16 blocks of 256); sweep a 16 KiB remote array.
	s := testCluster(t, 2, 1, smallCfg(WriteBack), func(l *Local) {
		if l.Rank().ID() == 0 {
			base := l.AllocCollective(16384, BlockDist)
			// Fill via the uncached PUT API (a checkout of the remote half
			// would exceed the 4 KiB cache by design).
			src := make([]byte, 16384)
			for i := range src {
				src[i] = byte(i % 251)
			}
			if err := l.Put(src, base); err != nil {
				t.Fatal(err)
			}
			shared[0] = base
			l.Rank().Barrier()
			l.Rank().Barrier()
			return
		}
		l.Rank().Barrier()
		l.AcquireFence()
		base := shared[0]
		for off := 0; off < 16384; off += 256 {
			v, err := l.Checkout(base+Addr(off), 256, Read)
			if err != nil {
				t.Fatal(err)
			}
			for i := range v {
				if v[i] != byte((off+i)%251) {
					t.Fatalf("byte %d wrong after eviction sweep", off+i)
				}
			}
			l.Checkin(base+Addr(off), 256, Read)
		}
		l.Rank().Barrier()
	})
	if s.Stats.Evictions == 0 {
		t.Fatal("sweep of 4x-cache-size array caused no evictions")
	}
}

func TestTooMuchCheckout(t *testing.T) {
	testCluster(t, 2, 1, smallCfg(WriteBack), func(l *Local) {
		if l.Rank().ID() == 0 {
			base := l.AllocCollective(16384, BlockDist)
			shared[0] = base
			l.Rank().Barrier()
			l.Rank().Barrier()
			return
		}
		l.Rank().Barrier()
		// 16 KiB checkout > 4 KiB cache on a remote region must fail.
		_, err := l.Checkout(shared[0], 16384, Read)
		if err == nil {
			t.Fatal("oversized checkout unexpectedly succeeded")
		}
		// The cache must remain usable afterwards.
		if _, err := l.Checkout(shared[0], 256, Read); err != nil {
			t.Fatalf("small checkout after failure: %v", err)
		}
		l.Checkin(shared[0], 256, Read)
		if l.OutstandingCheckouts() != 0 {
			t.Fatalf("outstanding = %d, want 0", l.OutstandingCheckouts())
		}
		l.Rank().Barrier()
	})
}

func TestNoncollectiveAllocFree(t *testing.T) {
	testCluster(t, 2, 1, smallCfg(WriteBack), func(l *Local) {
		if l.Rank().ID() == 0 {
			a := l.AllocLocal(100)
			b := l.AllocLocal(100)
			if a == b {
				t.Fatal("distinct allocations share an address")
			}
			if err := l.FreeLocal(a, 100); err != nil {
				t.Fatal(err)
			}
			c := l.AllocLocal(100)
			if c != a {
				t.Errorf("free list not reused: %#x vs %#x", c, a)
			}
			h, err := l.Space().HomeRank(a)
			if err != nil || h != 0 {
				t.Errorf("noncollective home = %d (%v), want 0", h, err)
			}
			shared[0] = b
			l.Rank().Barrier()
			l.Rank().Barrier()
			return
		}
		l.Rank().Barrier()
		// Remote rank writes to rank 0's noncollective memory and frees it.
		v, err := l.Checkout(shared[0], 100, Write)
		if err != nil {
			t.Fatal(err)
		}
		v[0] = 1
		l.Checkin(shared[0], 100, Write)
		l.ReleaseFence()
		if err := l.FreeLocal(shared[0], 100); err != nil {
			t.Fatalf("remote free: %v", err)
		}
		l.Rank().Barrier()
	})
}

// TestNoncollectiveHomeIsOwner: a block of rank 2's noncollective heap has
// its home on rank 2, the owner, not on rank 0, for every path that
// resolves a home — HomeRank, a remote checkout's fetch and a remote
// write-back.
func TestNoncollectiveHomeIsOwner(t *testing.T) {
	const n = 300 // spans two 256-byte blocks
	s := testCluster(t, 3, 1, smallCfg(WriteBack), func(l *Local) {
		me := l.Rank().ID()
		if me == 2 {
			addr := l.AllocLocal(n)
			v, err := l.Checkout(addr, n, Write)
			if err != nil {
				t.Fatal(err)
			}
			for i := range v {
				v[i] = byte(i) ^ 0x5A
			}
			l.Checkin(addr, n, Write)
			l.ReleaseFence()
			shared[0] = addr
		}
		l.Rank().Barrier()
		addr := shared[0]
		if me == 0 {
			if h, err := l.Space().HomeRank(addr + n - 1); err != nil || h != 2 {
				t.Errorf("HomeRank = %d (%v), want the owner 2", h, err)
			}
			// Checkout path: the fetch reads the owner's segment.
			v, err := l.Checkout(addr, n, Read)
			if err != nil {
				t.Fatal(err)
			}
			for i := range v {
				if v[i] != byte(i)^0x5A {
					t.Fatalf("checked-out byte %d = %#x, want %#x", i, v[i], byte(i)^0x5A)
				}
			}
			l.Checkin(addr, n, Read)
		}
		l.Rank().Barrier()
		if me == 1 {
			// Write-back path: the release lands the bytes on the owner.
			v, err := l.Checkout(addr, n, Write)
			if err != nil {
				t.Fatal(err)
			}
			for i := range v {
				v[i] = byte(i) ^ 0xC3
			}
			l.Checkin(addr, n, Write)
			l.ReleaseFence()
		}
		l.Rank().Barrier()
	})
	seg := s.ncWin.Seg(2)
	off := int(shared[0] - (ncBase + 2*ncSpan))
	for i := 0; i < n; i++ {
		if seg[off+i] != byte(i)^0xC3 {
			t.Fatalf("owner's byte %d = %#x after the write-back, want %#x", i, seg[off+i], byte(i)^0xC3)
		}
	}
}

func TestUnmatchedCheckinFails(t *testing.T) {
	testCluster(t, 1, 1, smallCfg(WriteBack), func(l *Local) {
		base := l.AllocCollective(256, BlockDist)
		if err := l.Checkin(base, 256, Read); err == nil {
			t.Error("checkin without checkout succeeded")
		}
		l.Checkout(base, 256, Read)
		if err := l.Checkin(base, 256, ReadWrite); err == nil {
			t.Error("checkin with wrong mode succeeded")
		}
		if err := l.Checkin(base, 256, Read); err != nil {
			t.Errorf("correct checkin failed: %v", err)
		}
	})
}

func TestWriteModeDoesNotFetch(t *testing.T) {
	s := testCluster(t, 2, 1, smallCfg(WriteBack), func(l *Local) {
		if l.Rank().ID() == 0 {
			base := l.AllocCollective(512, BlockDist)
			shared[0] = base
			l.Rank().Barrier()
			l.Rank().Barrier()
			return
		}
		l.Rank().Barrier()
		v, err := l.Checkout(shared[0], 512, Write)
		if err != nil {
			t.Fatal(err)
		}
		for i := range v {
			v[i] = 5
		}
		l.Checkin(shared[0], 512, Write)
		l.Rank().Barrier()
	})
	if s.Stats.FetchOps != 0 {
		t.Fatalf("write-only checkout fetched %d times", s.Stats.FetchOps)
	}
}

func TestLazyReleaseProtocol(t *testing.T) {
	testCluster(t, 2, 1, smallCfg(WriteBackLazy), func(l *Local) {
		if l.Rank().ID() == 0 {
			base := l.AllocCollective(256, BlockCyclicDist)
			shared[0] = base
			l.Rank().Barrier() // alloc ready

			// Write remotely-homed data (block 0 of block-cyclic with 2
			// ranks: block 0 → rank 0... use block 1 at offset 256? size
			// is 256 = 1 block homed on rank 0. Write to rank 1's nc
			// memory instead.
			l.Rank().Barrier() // rank 1 allocated
			tgt := shared[1]
			v, err := l.Checkout(tgt, 64, ReadWrite)
			if err != nil {
				t.Fatal(err)
			}
			v[0] = 123
			l.Checkin(tgt, 64, ReadWrite)
			// Lazy release: no write-back yet.
			h := l.ReleaseLazy()
			if !h.Needed {
				t.Fatal("lazy release with dirty cache returned Unneeded")
			}
			if l.DirtyBytes() == 0 {
				t.Fatal("dirty bytes flushed eagerly under lazy policy")
			}
			shared[2] = Addr(h.Epoch)
			l.Rank().Barrier() // handler published

			// Emulate the victim polling at fork/join until requested.
			for i := 0; i < 1000; i++ {
				l.Poll()
				if l.DirtyBytes() == 0 {
					break
				}
				l.Rank().Proc().Advance(1 * sim.Microsecond)
			}
			l.Rank().Barrier() // all done
			return
		}
		// Rank 1: the "thief" acquiring against rank 0's lazy release.
		l.Rank().Barrier()
		addr := l.AllocLocal(64)
		v, _ := l.Checkout(addr, 64, Write)
		v[0] = 0
		l.Checkin(addr, 64, Write)
		l.ReleaseFence()
		shared[1] = addr
		l.Rank().Barrier() // published our address
		l.Rank().Barrier() // rank 0 wrote + lazy-released
		h := ReleaseHandler{Rank: 0, Epoch: uint64(shared[2]), Needed: true}
		l.AcquireWith(h) // must force rank 0's write-back via its Poll
		got, err := l.Checkout(shared[1], 64, Read)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != 123 {
			t.Errorf("after lazy acquire got %d, want 123", got[0])
		}
		l.Checkin(shared[1], 64, Read)
		l.Rank().Barrier()
	})
}

func TestRandomAccessMatchesReference(t *testing.T) {
	for _, pol := range Policies {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			const size = 8192
			ref := make([]byte, size)
			rng := rand.New(rand.NewSource(7))
			testCluster(t, 4, 2, smallCfg(pol), func(l *Local) {
				if l.Rank().ID() != 0 {
					l.Rank().Barrier()
					return
				}
				base := l.AllocCollective(size, BlockCyclicDist)
				// Single-rank random reads/writes against a host-side
				// reference array: catches stale-cache and lost-write bugs
				// in the single-process protocol paths.
				for op := 0; op < 400; op++ {
					off := rng.Intn(size - 64)
					n := 1 + rng.Intn(64)
					switch rng.Intn(3) {
					case 0: // write
						v, err := l.Checkout(base+Addr(off), uint64(n), Write)
						if err != nil {
							t.Fatal(err)
						}
						for i := range v {
							v[i] = byte(rng.Intn(256))
							ref[off+i] = v[i]
						}
						l.Checkin(base+Addr(off), uint64(n), Write)
					case 1: // read-modify-write
						v, err := l.Checkout(base+Addr(off), uint64(n), ReadWrite)
						if err != nil {
							t.Fatal(err)
						}
						for i := range v {
							if v[i] != ref[off+i] {
								t.Fatalf("op %d: RMW read byte %d = %d, want %d", op, off+i, v[i], ref[off+i])
							}
							v[i]++
							ref[off+i]++
						}
						l.Checkin(base+Addr(off), uint64(n), ReadWrite)
					case 2: // read
						v, err := l.Checkout(base+Addr(off), uint64(n), Read)
						if err != nil {
							t.Fatal(err)
						}
						for i := range v {
							if v[i] != ref[off+i] {
								t.Fatalf("op %d: read byte %d = %d, want %d", op, off+i, v[i], ref[off+i])
							}
						}
						l.Checkin(base+Addr(off), uint64(n), Read)
					}
					if rng.Intn(10) == 0 {
						l.ReleaseFence()
						l.AcquireFence()
					}
				}
				l.Rank().Barrier()
			})
		})
	}
}

func TestMmapCostsCharged(t *testing.T) {
	s := testCluster(t, 2, 1, smallCfg(WriteBack), func(l *Local) {
		if l.Rank().ID() == 0 {
			base := l.AllocCollective(1024, BlockDist)
			shared[0] = base
			l.Rank().Barrier()
			l.Rank().Barrier()
			return
		}
		l.Rank().Barrier()
		l.Checkout(shared[0], 256, Read)
		l.Checkin(shared[0], 256, Read)
		l.Rank().Barrier()
	})
	if s.Stats.Mmaps == 0 {
		t.Fatal("no mmap charged for first-time cache block mapping")
	}
}

// TestPrivateCacheRefetchesAcrossRanks: every rank's cache is its own, so
// a node-mate having fetched a region saves this rank nothing. Ranks 0 and 1
// share node 0; rank 2, alone on node 1, is the home.
func TestPrivateCacheRefetchesAcrossRanks(t *testing.T) {
	var fetchesAfterA, fetchesAfterB uint64
	testCluster(t, 3, 2, smallCfg(WriteBackLazy), func(l *Local) {
		switch l.Rank().ID() {
		case 2:
			shared[0] = l.AllocLocal(512)
			v, _ := l.Checkout(shared[0], 512, Write)
			for i := range v {
				v[i] = 9
			}
			l.Checkin(shared[0], 512, Write)
			l.ReleaseFence()
			l.Rank().Barrier()
			l.Rank().Barrier()
		case 0:
			l.Rank().Barrier()
			l.Checkout(shared[0], 512, Read)
			l.Checkin(shared[0], 512, Read)
			fetchesAfterA = l.Space().Stats.FetchOps
			l.Rank().Barrier()
		case 1:
			l.Rank().Barrier()
			l.Rank().Proc().Advance(1 << 20)
			l.Checkout(shared[0], 512, Read)
			l.Checkin(shared[0], 512, Read)
			fetchesAfterB = l.Space().Stats.FetchOps
			l.Rank().Barrier()
		}
	})
	if fetchesAfterB <= fetchesAfterA {
		t.Fatalf("private caches should refetch: %d -> %d", fetchesAfterA, fetchesAfterB)
	}
}

// poisonPool tops the process-wide cache-block pool with n blocks of
// blockSize bytes filled with 0xA5, through the production path: a cache
// table takes them from the pool (or allocates), and Release hands them
// back. The next n blocks any cache of that block size acquires are
// poisoned.
func poisonPool(n, blockSize int) {
	tb := memblock.NewTable(n, blockSize, false)
	for id := 0; id < n; id++ {
		b, _, _ := tb.Acquire(int64(id))
		for i := range b.Data {
			b.Data[i] = 0xA5
		}
	}
	tb.Release()
}

// TestReusedBufferNeverRead: an acquire fence hands the storage of a block
// it leaves with nothing valid back to the pool, and the next block the
// cache assigns gets that buffer, bytes and all. A rank reads all of block
// A and passes a fence; a partial Write checkout of block B then gets A's
// old buffer and marks only its own bytes valid, so a Read of all of B
// returns home bytes plus the written ones and no byte of A. Reading A
// again gives A a buffer of its own and leaves B's bytes alone.
func TestReusedBufferNeverRead(t *testing.T) {
	for _, pol := range Policies {
		if pol == NoCache {
			continue
		}
		t.Run(pol.String(), func(t *testing.T) {
			testCluster(t, 2, 1, smallCfg(pol), func(l *Local) {
				if l.Rank().ID() != 0 {
					l.Rank().Barrier()
					return
				}
				// Two blocks per rank: blocks 2 and 3 are homed on rank 1.
				base := l.AllocCollective(1024, BlockDist)
				a, b := base+512, base+768
				homeA, homeB := make([]byte, 256), make([]byte, 256)
				for i := range homeA {
					homeA[i], homeB[i] = 0xA0|byte(i%16), byte(i%64+1)
				}
				if err := l.Put(homeA, a); err != nil {
					t.Fatal(err)
				}
				if err := l.Put(homeB, b); err != nil {
					t.Fatal(err)
				}
				l.AcquireFence()
				if _, err := l.Checkout(a, 256, Read); err != nil {
					t.Fatal(err)
				}
				l.Checkin(a, 256, Read)
				bufA := &l.cache.Peek(int64(a) / 256).Data[0]
				l.AcquireFence()

				const lo, n = 70, 50 // straddles two 64-byte sub-blocks
				v, err := l.Checkout(b+lo, n, Write)
				if err != nil {
					t.Fatal(err)
				}
				if &l.cache.Peek(int64(b) / 256).Data[0] != bufA {
					t.Fatal("block B did not get the buffer the fence took from block A")
				}
				for i := range v {
					v[i] = byte(0xC0 + i%16)
				}
				l.Checkin(b+lo, n, Write)
				want := append([]byte(nil), homeB...)
				copy(want[lo:], v)
				readB := func(when string) {
					got, err := l.Checkout(b, 256, Read)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("Read of B %s = %x, want %x", when, got, want)
					}
					l.Checkin(b, 256, Read)
				}
				readB("after its partial Write")
				if _, err := l.Checkout(a, 256, Read); err != nil {
					t.Fatal(err)
				}
				l.Checkin(a, 256, Read)
				readB("after A was read again")
				l.Rank().Barrier()
			})
		})
	}
}

// TestReadViewHeldAcrossAcquire: a Read view held across an acquire fence,
// between its Checkout and its Checkin, keeps its bytes: the fence leaves
// the pinned block its storage, so a Write checkout after the fence takes
// a buffer of its own.
func TestReadViewHeldAcrossAcquire(t *testing.T) {
	testCluster(t, 2, 1, smallCfg(WriteBackLazy), func(l *Local) {
		if l.Rank().ID() != 0 {
			l.Rank().Barrier()
			return
		}
		base := l.AllocCollective(1024, BlockDist)
		a, c := base+512, base+768
		home := make([]byte, 256)
		for i := range home {
			home[i] = byte(i%64 + 1)
		}
		if err := l.Put(home, a); err != nil {
			t.Fatal(err)
		}
		view, err := l.Checkout(a, 256, Read)
		if err != nil {
			t.Fatal(err)
		}
		l.AcquireFence()
		w, err := l.Checkout(c, 256, Write)
		if err != nil {
			t.Fatal(err)
		}
		for i := range w {
			w[i] = 0xEE
		}
		l.Checkin(c, 256, Write)
		if !bytes.Equal(view, home) {
			t.Fatalf("a Read view held across an acquire fence = %x, want %x", view, home)
		}
		l.Checkin(a, 256, Read)
		l.Rank().Barrier()
	})
}

// TestPoisonedBlockNeverRead: cache-block storage is never zeroed, and
// nothing needs it to be. A partial Write checkout of a block whose
// storage is all 0xA5 marks only its own bytes valid, and a later Read of
// the whole block fetches the rest from home: it returns home bytes plus
// the written ones, never a poisoned byte.
func TestPoisonedBlockNeverRead(t *testing.T) {
	for _, pol := range Policies {
		if pol == NoCache {
			continue
		}
		t.Run(pol.String(), func(t *testing.T) {
			cfg := smallCfg(pol)
			poisonPool(cfg.CacheSize/cfg.BlockSize, cfg.BlockSize)
			testCluster(t, 2, 1, cfg, func(l *Local) {
				if l.Rank().ID() != 0 {
					l.Rank().Barrier()
					return
				}
				// One block per rank: the block at base+256 is homed on rank 1.
				base := l.AllocCollective(512, BlockDist)
				blk := base + 256
				home := make([]byte, 256)
				for i := range home {
					home[i] = byte(i%64 + 1)
				}
				if err := l.Put(home, blk); err != nil {
					t.Fatal(err)
				}
				const lo, n = 70, 50 // straddles two 64-byte sub-blocks
				v, err := l.Checkout(blk+lo, n, Write)
				if err != nil {
					t.Fatal(err)
				}
				for i := range v {
					v[i] = byte(0xC0 + i%16)
				}
				if err := l.Checkin(blk+lo, n, Write); err != nil {
					t.Fatal(err)
				}
				want := append([]byte(nil), home...)
				copy(want[lo:], v)
				if l.cache.Peek(int64(blk) / 256).Data[0] != 0xA5 {
					t.Fatal("the cache block was not taken from the poisoned pool")
				}
				got, err := l.Checkout(blk, 256, Read)
				if err != nil {
					t.Fatal(err)
				}
				if bytes.IndexByte(got, 0xA5) >= 0 || !bytes.Equal(got, want) {
					t.Fatalf("Read of a partly written poisoned block = %x, want %x", got, want)
				}
				l.Checkin(blk, 256, Read)
				l.Rank().Barrier()
			})
		})
	}
}

package core

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"ityr/internal/memblock"
	"ityr/internal/pgas"
	"ityr/internal/sim"
)

func cfgFor(ranks int, pol pgas.Policy, seed int64) Config {
	return Config{
		Ranks:        ranks,
		CoresPerNode: 4,
		Pgas:         pgas.Config{BlockSize: 512, SubBlockSize: 64, CacheSize: 16384, Policy: pol},
		Seed:         seed,
	}
}

func TestParallelSumAllPoliciesAllRanks(t *testing.T) {
	const n = 1024
	for _, pol := range pgas.Policies {
		for _, ranks := range []int{1, 2, 8} {
			pol, ranks := pol, ranks
			t.Run(fmt.Sprintf("%v/%dr", pol, ranks), func(t *testing.T) {
				rt := NewRuntime(cfgFor(ranks, pol, 7))
				var total int64
				err := rt.Run(func(s *SPMD) {
					var base pgas.Addr
					if s.Rank() == 0 {
						base = s.AllocCollective(n*8, pgas.BlockCyclicDist)
						// Initialize from the SPMD region with PUT.
						buf := make([]byte, n*8)
						for i := 0; i < n; i++ {
							binary.LittleEndian.PutUint64(buf[i*8:], uint64(i))
						}
						if err := s.Local().Put(buf, base); err != nil {
							t.Error(err)
						}
					}
					s.Barrier()
					s.RootExec(func(c *Ctx) {
						total = sumRange(c, base, 0, n)
					})
				})
				if err != nil {
					t.Fatal(err)
				}
				want := int64(n * (n - 1) / 2)
				if total != want {
					t.Fatalf("sum = %d, want %d", total, want)
				}
			})
		}
	}
}

// sumRange sums global int64 cells [lo,hi) by parallel divide and conquer.
func sumRange(c *Ctx, base pgas.Addr, lo, hi int64) int64 {
	if hi-lo <= 64 {
		c.Charge(sim.Time(hi-lo) * 20)
		v := c.MustCheckout(base+pgas.Addr(lo*8), uint64((hi-lo)*8), pgas.Read)
		var s int64
		for i := int64(0); i < hi-lo; i++ {
			s += int64(binary.LittleEndian.Uint64(v[i*8:]))
		}
		c.Checkin(base+pgas.Addr(lo*8), uint64((hi-lo)*8), pgas.Read)
		return s
	}
	mid := (lo + hi) / 2
	var a, b int64
	c.ParallelInvoke(
		func(c *Ctx) { a = sumRange(c, base, lo, mid) },
		func(c *Ctx) { b = sumRange(c, base, mid, hi) },
	)
	return a + b
}

// TestDAGConsistency is the central coherence test: a task tree where each
// leaf writes its own global cell and every internal node reads its
// children's cells after joining them. Any missing release/acquire fence or
// stale cache line breaks the root sum. Runs across policies, rank counts
// and seeds (different seeds ⇒ different steal schedules).
func TestDAGConsistency(t *testing.T) {
	const depth = 7 // 128 leaves, 255 nodes
	for _, pol := range pgas.Policies {
		for _, ranks := range []int{2, 8} {
			for seed := int64(1); seed <= 3; seed++ {
				pol, ranks, seed := pol, ranks, seed
				t.Run(fmt.Sprintf("%v/%dr/s%d", pol, ranks, seed), func(t *testing.T) {
					rt := NewRuntime(cfgFor(ranks, pol, seed))
					var rootVal int64
					nNodes := int64(1<<(depth+1)) - 1
					err := rt.Run(func(s *SPMD) {
						var base pgas.Addr
						if s.Rank() == 0 {
							base = s.AllocCollective(uint64(nNodes*8), pgas.BlockCyclicDist)
						}
						s.Barrier()
						s.RootExec(func(c *Ctx) {
							dagNode(c, base, 0, depth)
							v := c.MustCheckout(base, 8, pgas.Read)
							rootVal = int64(binary.LittleEndian.Uint64(v))
							c.Checkin(base, 8, pgas.Read)
						})
					})
					if err != nil {
						t.Fatal(err)
					}
					if want := int64(1 << depth); rootVal != want {
						t.Fatalf("root = %d, want %d (policy %v)", rootVal, want, pol)
					}
					if ranks > 1 && rt.Sched().Stats.Steals == 0 {
						t.Logf("note: no steals occurred for seed %d", seed)
					}
				})
			}
		}
	}
}

// dagNode writes into cell idx: leaves write 1, internal nodes write the
// sum of their children's cells (heap indexing: children of i are 2i+1,
// 2i+2). Mixed compute times make steal schedules diverse.
func dagNode(c *Ctx, base pgas.Addr, idx int64, depth int) {
	if depth == 0 {
		c.Charge(sim.Time(5+idx%7) * sim.Microsecond)
		v := c.MustCheckout(base+pgas.Addr(idx*8), 8, pgas.ReadWrite)
		binary.LittleEndian.PutUint64(v, uint64(1))
		c.Checkin(base+pgas.Addr(idx*8), 8, pgas.ReadWrite)
		return
	}
	l, r := 2*idx+1, 2*idx+2
	c.ParallelInvoke(
		func(c *Ctx) { dagNode(c, base, l, depth-1) },
		func(c *Ctx) { dagNode(c, base, r, depth-1) },
	)
	c.Charge(2 * sim.Microsecond)
	lv := c.MustCheckout(base+pgas.Addr(l*8), 8, pgas.Read)
	a := binary.LittleEndian.Uint64(lv)
	c.Checkin(base+pgas.Addr(l*8), 8, pgas.Read)
	rv := c.MustCheckout(base+pgas.Addr(r*8), 8, pgas.Read)
	b := binary.LittleEndian.Uint64(rv)
	c.Checkin(base+pgas.Addr(r*8), 8, pgas.Read)
	ov := c.MustCheckout(base+pgas.Addr(idx*8), 8, pgas.Write)
	binary.LittleEndian.PutUint64(ov, a+b)
	c.Checkin(base+pgas.Addr(idx*8), 8, pgas.Write)
}

func TestParallelForCoversRangeOnce(t *testing.T) {
	const n = 1000
	rt := NewRuntime(cfgFor(4, pgas.WriteBackLazy, 3))
	hits := make([]int32, n)
	_, err := rt.RunRoot(func(c *Ctx) {
		c.ParallelFor(0, n, 16, func(c *Ctx, lo, hi int64) {
			c.Charge(sim.Time(hi-lo) * 100)
			for i := lo; i < hi; i++ {
				hits[i]++
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	run := func() (sim.Time, uint64) {
		rt := NewRuntime(cfgFor(8, pgas.WriteBackLazy, 99))
		elapsed, err := rt.RunRoot(func(c *Ctx) {
			c.ParallelFor(0, 256, 8, func(c *Ctx, lo, hi int64) {
				c.Charge(sim.Time(hi-lo) * sim.Microsecond)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed, rt.Sched().Stats.Steals
	}
	e1, s1 := run()
	e2, s2 := run()
	if e1 != e2 || s1 != s2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", e1, s1, e2, s2)
	}
}

// TestCheckoutAcrossForkPanics holds a checkout across each fork-join
// point: Fork and Join must both refuse it (§3.3).
func TestCheckoutAcrossForkPanics(t *testing.T) {
	for _, tc := range []struct {
		op  string
		cut func(c *Ctx, child *Thread)
	}{
		{"Fork", func(c *Ctx, _ *Thread) { c.Fork(func(*Ctx) {}) }},
		{"Join", func(c *Ctx, child *Thread) { c.Join(child) }},
	} {
		rt := NewRuntime(cfgFor(2, pgas.WriteBack, 1))
		panicked := false
		_, err := rt.RunRoot(func(c *Ctx) {
			base := c.Local().AllocCollective(256, pgas.BlockDist)
			child := c.Fork(func(*Ctx) {})
			c.MustCheckout(base, 8, pgas.Read)
			func() {
				defer func() {
					if recover() != nil {
						panicked = true
					}
				}()
				tc.cut(c, child)
			}()
			c.Checkin(base, 8, pgas.Read)
			c.Join(child)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !panicked {
			t.Errorf("%s with outstanding checkout did not panic", tc.op)
		}
	}
}

func TestCachingBeatsNoCacheOnReuseWorkload(t *testing.T) {
	// Many tasks repeatedly read the same remote region: with caching the
	// fetch happens once per rank; without, every task communicates. This
	// is the paper's core claim in miniature.
	run := func(pol pgas.Policy) sim.Time {
		cfg := cfgFor(8, pol, 5)
		// Paper-like geometry: the whole region is one block, so a
		// cache hit costs one table lookup instead of one RMA.
		cfg.Pgas = pgas.Config{BlockSize: 16 << 10, SubBlockSize: 2 << 10, CacheSize: 128 << 10, Policy: pol}
		rt := NewRuntime(cfg)
		elapsed, err := rt.RunRoot(func(c *Ctx) {
			base := c.Local().AllocCollective(16<<10, pgas.BlockDist) // homed on rank 0
			c.ParallelFor(0, 512, 1, func(c *Ctx, lo, hi int64) {
				v := c.MustCheckout(base, 16<<10, pgas.Read)
				_ = v[0]
				c.Charge(2 * sim.Microsecond)
				c.Checkin(base, 16<<10, pgas.Read)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	noCache := run(pgas.NoCache)
	cached := run(pgas.WriteBackLazy)
	if cached >= noCache {
		t.Fatalf("caching (%d ns) not faster than no-cache (%d ns) on reuse workload", cached, noCache)
	}
	if ratio := float64(noCache) / float64(cached); ratio < 1.3 {
		t.Errorf("cache speedup only %.2fx, expected >= 1.3x", ratio)
	}
}

func TestProfilerCategoriesPopulated(t *testing.T) {
	rt := NewRuntime(cfgFor(4, pgas.WriteBackLazy, 11))
	elapsed, err := rt.RunRoot(func(c *Ctx) {
		base := c.Local().AllocCollective(8192, pgas.BlockCyclicDist)
		c.ParallelFor(0, 1024, 64, func(c *Ctx, lo, hi int64) {
			v := c.MustCheckout(base+pgas.Addr(lo*8), uint64((hi-lo)*8), pgas.ReadWrite)
			for i := range v {
				v[i]++
			}
			c.ChargeAs("Serial Work", sim.Time(hi-lo)*50)
			c.Checkin(base+pgas.Addr(lo*8), uint64((hi-lo)*8), pgas.ReadWrite)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	p := rt.Profiler()
	if p.Total("Checkout") == 0 || p.Total("Checkin") == 0 {
		t.Error("checkout/checkin time not recorded")
	}
	if p.Total("Serial Work") == 0 {
		t.Error("app category not recorded")
	}
	bd := p.Breakdown(elapsed)
	if bd["Others"] < 0 {
		t.Error("negative Others time")
	}
}

func TestAllocFreeInsideTasks(t *testing.T) {
	rt := NewRuntime(cfgFor(4, pgas.WriteBackLazy, 2))
	_, err := rt.RunRoot(func(c *Ctx) {
		c.ParallelFor(0, 64, 1, func(c *Ctx, lo, hi int64) {
			addr := c.AllocLocal(128)
			v := c.MustCheckout(addr, 128, pgas.Write)
			v[0] = byte(lo)
			c.Checkin(addr, 128, pgas.Write)
			g := c.MustCheckout(addr, 128, pgas.Read)
			if g[0] != byte(lo) {
				t.Errorf("task %d read back %d", lo, g[0])
			}
			c.Checkin(addr, 128, pgas.Read)
			c.FreeLocal(addr, 128)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCacheStoragePooledAcrossRuntimes: cache-block storage outlives its
// runtime. The first runtime allocates every cache block it touches; Run
// hands the storage back to the process-wide pool, and a second, identical
// runtime allocates at least that many bytes less.
func TestCacheStoragePooledAcrossRuntimes(t *testing.T) {
	// 32 KiB blocks: no other test in the package uses the size, so the
	// first runtime starts from an empty pool.
	const ranks, perRank, bs = 4, 8, 32 << 10
	cfg := Config{Ranks: ranks, CoresPerNode: 1,
		Pgas: pgas.Config{BlockSize: bs, SubBlockSize: 4 << 10, CacheSize: ranks * perRank * bs, Policy: pgas.WriteBackLazy}}
	// Every rank reads every block homed elsewhere: ranks·(ranks-1)·perRank
	// cache blocks in all.
	const blocks = ranks * (ranks - 1) * perRank
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var base pgas.Addr
		err := NewRuntime(cfg).Run(func(s *SPMD) {
			if s.Rank() == 0 {
				base = s.AllocCollective(ranks*perRank*bs, pgas.BlockDist)
			}
			s.Barrier()
			for r := 0; r < ranks; r++ {
				if r == s.Rank() {
					continue
				}
				addr, size := base+pgas.Addr(r*perRank*bs), uint64(perRank*bs)
				if _, err := s.Local().Checkout(addr, size, pgas.Read); err != nil {
					t.Error(err)
					return
				}
				s.Local().Checkin(addr, size, pgas.Read)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// Take the pooled blocks back out at the end, so a repeated run of this
	// test (go test -count) starts from an empty pool again.
	t.Cleanup(func() {
		drain := memblock.NewTable(blocks, bs, false)
		for id := int64(0); id < blocks; id++ {
			drain.Acquire(id)
		}
	})
	// The rest of a run allocates the same give or take a few hundred
	// bytes; one block of slack absorbs that.
	first, second := run(), run()
	if second+(blocks-1)*bs > first {
		t.Fatalf("second runtime allocated %d B, first %d B: want about %d B (%d blocks) less",
			second, first, blocks*bs, blocks)
	}
}

// TestRunTwiceSeesFirstRunsWrites: a second Run on the same runtime reads
// every byte the first one wrote — the fork-join region's writes, released
// at its end, and SPMD-mode writes still dirty in the writers' caches when
// Run returned, which keep their cache storage through it.
func TestRunTwiceSeesFirstRunsWrites(t *testing.T) {
	const ranks, n = 4, 2048 // int64 cells; each rank's half-chunk is written in SPMD mode
	for _, pol := range pgas.Policies {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := cfgFor(ranks, pol, 3)
			cfg.CoresPerNode = 1 // every other rank's memory goes through the cache
			rt := NewRuntime(cfg)
			var base pgas.Addr
			chunk := int64(n / ranks)
			err := rt.Run(func(s *SPMD) {
				if s.Rank() == 0 {
					base = s.AllocCollective(n*8, pgas.BlockDist)
				}
				s.Barrier()
				s.RootExec(func(c *Ctx) {
					c.ParallelFor(0, n, 64, func(c *Ctx, lo, hi int64) {
						for i := lo; i < hi; i++ {
							if i%chunk < chunk/2 {
								writeCell(c.Local(), base, i, i+1)
							}
						}
					})
				})
				// The other half of the next rank's chunk, written from SPMD
				// mode with no fence after it.
				next := int64((s.Rank() + 1) % ranks)
				for i := next*chunk + chunk/2; i < (next+1)*chunk; i++ {
					writeCell(s.Local(), base, i, i+1)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			dirty := uint64(0)
			for r := 0; r < ranks; r++ {
				dirty += rt.Space().Local(r).DirtyBytes()
			}
			if wb := pol == pgas.WriteBack || pol == pgas.WriteBackLazy; wb != (dirty > 0) {
				t.Fatalf("%d dirty bytes after the first Run", dirty)
			}
			err = rt.Run(func(s *SPMD) {
				s.Local().ReleaseFence()
				s.Barrier()
				s.Local().AcquireFence()
				s.RootExec(func(c *Ctx) {
					c.ParallelFor(0, n, 64, func(c *Ctx, lo, hi int64) {
						v := c.MustCheckout(base+pgas.Addr(lo*8), uint64((hi-lo)*8), pgas.Read)
						for i := lo; i < hi; i++ {
							if got := int64(binary.LittleEndian.Uint64(v[(i-lo)*8:])); got != i+1 {
								t.Errorf("cell %d = %d after the second Run, want %d", i, got, i+1)
							}
						}
						c.Checkin(base+pgas.Addr(lo*8), uint64((hi-lo)*8), pgas.Read)
					})
				})
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// writeCell stores v in int64 cell i of the array at base.
func writeCell(l *pgas.Local, base pgas.Addr, i, v int64) {
	addr := base + pgas.Addr(i*8)
	w, err := l.Checkout(addr, 8, pgas.Write)
	if err != nil {
		panic(err)
	}
	binary.LittleEndian.PutUint64(w, uint64(v))
	if err := l.Checkin(addr, 8, pgas.Write); err != nil {
		panic(err)
	}
}

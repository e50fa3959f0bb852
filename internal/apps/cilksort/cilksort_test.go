package cilksort

import (
	"fmt"
	"testing"

	"ityr"
)

func cfg(ranks int, pol ityr.Policy) ityr.Config {
	return ityr.Config{
		Ranks:        ranks,
		CoresPerNode: 4,
		Pgas:         ityr.PgasConfig{BlockSize: 16 << 10, SubBlockSize: 2 << 10, CacheSize: 2 << 20, Policy: pol},
		Seed:         3,
	}
}

func TestSortsCorrectlyAllPolicies(t *testing.T) {
	const n = 1 << 14
	for _, pol := range ityr.Policies {
		for _, ranks := range []int{1, 8} {
			pol, ranks := pol, ranks
			t.Run(fmt.Sprintf("%v/%dr", pol, ranks), func(t *testing.T) {
				var sortedOK bool
				var before, after int64
				_, err := ityr.LaunchRoot(cfg(ranks, pol), func(c *ityr.Ctx) {
					a := ityr.AllocArray[Elem](c, n, ityr.BlockCyclicDist)
					b := ityr.AllocArray[Elem](c, n, ityr.BlockCyclicDist)
					Generate(c, a, 12345)
					before = Checksum(c, a)
					Sort(c, a, b, 512)
					after = Checksum(c, a)
					sortedOK = IsSorted(c, a)
				})
				if err != nil {
					t.Fatal(err)
				}
				if !sortedOK {
					t.Error("array not sorted")
				}
				if before != after {
					t.Errorf("checksum changed: %d -> %d (not a permutation)", before, after)
				}
			})
		}
	}
}

func TestSmallAndEdgeSizes(t *testing.T) {
	for _, n := range []int64{1, 2, 3, 7, 100, 1023} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			var ok bool
			_, err := ityr.LaunchRoot(cfg(2, ityr.WriteBackLazy), func(c *ityr.Ctx) {
				a := ityr.AllocArray[Elem](c, n, ityr.BlockDist)
				b := ityr.AllocArray[Elem](c, n, ityr.BlockDist)
				Generate(c, a, uint64(n))
				Sort(c, a, b, 16)
				ok = IsSorted(c, a)
			})
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Error("not sorted")
			}
		})
	}
}

func TestAlreadySortedAndReversed(t *testing.T) {
	const n = 4096
	var ok1, ok2 bool
	_, err := ityr.LaunchRoot(cfg(4, ityr.WriteBack), func(c *ityr.Ctx) {
		a := ityr.AllocArray[Elem](c, n, ityr.BlockCyclicDist)
		b := ityr.AllocArray[Elem](c, n, ityr.BlockCyclicDist)
		// Ascending input.
		c.ParallelFor(0, n, 1024, func(c *ityr.Ctx, lo, hi int64) {
			v := ityr.Checkout(c, a.Slice(lo, hi), ityr.Write)
			for i := range v {
				v[i] = Elem(lo) + Elem(i)
			}
			ityr.Checkin(c, a.Slice(lo, hi), ityr.Write)
		})
		Sort(c, a, b, 256)
		ok1 = IsSorted(c, a)
		// Descending input.
		c.ParallelFor(0, n, 1024, func(c *ityr.Ctx, lo, hi int64) {
			v := ityr.Checkout(c, a.Slice(lo, hi), ityr.Write)
			for i := range v {
				v[i] = Elem(n) - Elem(lo) - Elem(i)
			}
			ityr.Checkin(c, a.Slice(lo, hi), ityr.Write)
		})
		Sort(c, a, b, 256)
		ok2 = IsSorted(c, a)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok1 || !ok2 {
		t.Errorf("sorted=%v reversed=%v", ok1, ok2)
	}
}

func TestDuplicateHeavyInput(t *testing.T) {
	const n = 8192
	var ok bool
	var before, after int64
	_, err := ityr.LaunchRoot(cfg(4, ityr.WriteBackLazy), func(c *ityr.Ctx) {
		a := ityr.AllocArray[Elem](c, n, ityr.BlockCyclicDist)
		b := ityr.AllocArray[Elem](c, n, ityr.BlockCyclicDist)
		c.ParallelFor(0, n, 1024, func(c *ityr.Ctx, lo, hi int64) {
			v := ityr.Checkout(c, a.Slice(lo, hi), ityr.Write)
			for i := range v {
				v[i] = Elem((lo + int64(i)) % 7) // heavy duplication
			}
			ityr.Checkin(c, a.Slice(lo, hi), ityr.Write)
		})
		before = Checksum(c, a)
		Sort(c, a, b, 128)
		after = Checksum(c, a)
		ok = IsSorted(c, a)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok || before != after {
		t.Errorf("ok=%v before=%d after=%d", ok, before, after)
	}
}

// TestAllEqualKeysStayWithinCache sorts 1 Mi equal keys through a 1 MiB
// cache. Every binary search then returns 0, so each split of a merge above
// the cutoff hands its first half an empty side: a copy, a quarter of the
// array at the top merge. Copies must split like merges; that one in a
// single checkout would fail with ErrTooMuchCheckout.
func TestAllEqualKeysStayWithinCache(t *testing.T) {
	const n = 1 << 20
	conf := ityr.Config{
		Ranks:        8,
		CoresPerNode: 1,
		Pgas:         ityr.PgasConfig{CacheSize: 1 << 20, Policy: ityr.WriteBackLazy},
		Seed:         3,
	}
	var ok bool
	_, err := ityr.LaunchRoot(conf, func(c *ityr.Ctx) {
		a := ityr.AllocArray[Elem](c, n, ityr.BlockCyclicDist)
		b := ityr.AllocArray[Elem](c, n, ityr.BlockCyclicDist)
		ityr.Fill(c, a, 7)
		Sort(c, a, b, 4096)
		ok = IsSorted(c, a)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("not sorted")
	}
}

func TestCachingImprovesFineGrainedSort(t *testing.T) {
	// The Fig. 7 claim in miniature: at a small cutoff, the lazy
	// write-back cache beats the no-cache GET/PUT baseline.
	const n = 1 << 14
	run := func(pol ityr.Policy) ityr.Time {
		elapsed, err := ityr.LaunchRoot(cfg(8, pol), func(c *ityr.Ctx) {
			a := ityr.AllocArray[Elem](c, n, ityr.BlockCyclicDist)
			b := ityr.AllocArray[Elem](c, n, ityr.BlockCyclicDist)
			Generate(c, a, 99)
			Sort(c, a, b, 128)
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	noCache := run(ityr.NoCache)
	lazy := run(ityr.WriteBackLazy)
	if lazy >= noCache {
		t.Errorf("lazy write-back (%v) not faster than no-cache (%v) at fine grain", lazy, noCache)
	} else {
		t.Logf("fine-grained cutoff: no-cache %.2f ms vs lazy %.2f ms (%.1fx)",
			float64(noCache)/1e6, float64(lazy)/1e6, float64(noCache)/float64(lazy))
	}
}

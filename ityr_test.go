package ityr_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"ityr"
	"ityr/internal/rma"
)

func testCfg(ranks int, pol ityr.Policy) ityr.Config {
	return ityr.Config{
		Ranks:        ranks,
		CoresPerNode: 4,
		Pgas:         ityr.PgasConfig{BlockSize: 8 << 10, SubBlockSize: 1 << 10, CacheSize: 1 << 20, Policy: pol},
		Seed:         1,
	}
}

func TestTypedArrayRoundTrip(t *testing.T) {
	const n = 4096
	for _, pol := range ityr.Policies {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			var sum int64
			_, err := ityr.LaunchRoot(testCfg(8, pol), func(c *ityr.Ctx) {
				a := ityr.AllocArray[int32](c, n, ityr.BlockCyclicDist)
				c.ParallelFor(0, n, 256, func(c *ityr.Ctx, lo, hi int64) {
					v := ityr.Checkout(c, a.Slice(lo, hi), ityr.Write)
					for i := range v {
						v[i] = int32(lo) + int32(i)
					}
					ityr.Checkin(c, a.Slice(lo, hi), ityr.Write)
				})
				// Parallel reduce.
				sum = reduceSum(c, a)
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(n) * (n - 1) / 2; sum != want {
				t.Fatalf("sum = %d, want %d", sum, want)
			}
		})
	}
}

func reduceSum(c *ityr.Ctx, a ityr.GSpan[int32]) int64 {
	if a.Len <= 512 {
		v := ityr.Checkout(c, a, ityr.Read)
		var s int64
		for _, x := range v {
			s += int64(x)
		}
		ityr.Checkin(c, a, ityr.Read)
		return s
	}
	l, r := a.SplitTwo()
	var sl, sr int64
	c.ParallelInvoke(
		func(c *ityr.Ctx) { sl = reduceSum(c, l) },
		func(c *ityr.Ctx) { sr = reduceSum(c, r) },
	)
	return sl + sr
}

type nodeT struct {
	Value    int64
	Children [2]ityr.GPtr[nodeT]
}

func TestGlobalPointerChasing(t *testing.T) {
	// Build a binary tree of global objects with noncollective allocation
	// in parallel, then traverse it: UTS-Mem in miniature.
	const depth = 8
	var total int64
	_, err := ityr.LaunchRoot(testCfg(8, ityr.WriteBackLazy), func(c *ityr.Ctx) {
		root := buildTree(c, depth)
		total = countTree(c, root)
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(1<<(depth+1)) - 1; total != want {
		t.Fatalf("counted %d nodes, want %d", total, want)
	}
}

func buildTree(c *ityr.Ctx, depth int) ityr.GPtr[nodeT] {
	p := ityr.New[nodeT](c)
	var n nodeT
	n.Value = 1
	if depth > 0 {
		c.ParallelInvoke(
			func(c *ityr.Ctx) { n.Children[0] = buildTree(c, depth-1) },
			func(c *ityr.Ctx) { n.Children[1] = buildTree(c, depth-1) },
		)
	}
	ityr.PutVal(c, p, n)
	return p
}

func countTree(c *ityr.Ctx, p ityr.GPtr[nodeT]) int64 {
	if p.IsNil() {
		return 0
	}
	n := ityr.GetVal(c, p)
	var a, b int64
	if n.Children[0].IsNil() && n.Children[1].IsNil() {
		return n.Value
	}
	c.ParallelInvoke(
		func(c *ityr.Ctx) { a = countTree(c, n.Children[0]) },
		func(c *ityr.Ctx) { b = countTree(c, n.Children[1]) },
	)
	return n.Value + a + b
}

func TestSPMDInitAndReadback(t *testing.T) {
	const n = 1000
	err := ityr.Launch(testCfg(4, ityr.WriteBack), func(s *ityr.SPMD) {
		var a ityr.GSpan[float64]
		if s.Rank() == 0 {
			a = ityr.AllocArraySPMD[float64](s, n, ityr.BlockDist)
			src := make([]float64, n)
			for i := range src {
				src[i] = float64(i) * 0.5
			}
			if err := ityr.PutSlice(s, src, a); err != nil {
				t.Error(err)
			}
		}
		s.Barrier()
		s.RootExec(func(c *ityr.Ctx) {
			v := ityr.Checkout(c, a.Slice(10, 20), ityr.Read)
			for i, x := range v {
				if x != float64(10+i)*0.5 {
					t.Errorf("a[%d] = %v", 10+i, x)
				}
			}
			ityr.Checkin(c, a.Slice(10, 20), ityr.Read)
		})
		if s.Rank() == 0 {
			got, err := ityr.GetSlice(s, a.Slice(0, 4))
			if err != nil {
				t.Error(err)
			}
			if got[3] != 1.5 {
				t.Errorf("GetSlice[3] = %v, want 1.5", got[3])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSpanSplitters(t *testing.T) {
	s := ityr.GSpan[int32]{Ptr: ityr.PtrAt[int32](0x1000), Len: 10}
	a, b := s.SplitTwo()
	if a.Len != 5 || b.Len != 5 {
		t.Fatalf("split lens %d,%d", a.Len, b.Len)
	}
	if b.Ptr.Addr() != 0x1000+5*4 {
		t.Fatalf("second half at %#x", b.Ptr.Addr())
	}
	if s.At(3).Addr() != 0x1000+12 {
		t.Fatalf("At(3) = %#x", s.At(3).Addr())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range slice did not panic")
		}
	}()
	s.Slice(4, 11)
}

func TestStructuredTypesThroughCache(t *testing.T) {
	type particle struct {
		X, Y, Z    float64
		VX, VY, VZ float64
		Mass       float64
		ID         int64
	}
	const n = 512
	_, err := ityr.LaunchRoot(testCfg(8, ityr.WriteBackLazy), func(c *ityr.Ctx) {
		ps := ityr.AllocArray[particle](c, n, ityr.BlockCyclicDist)
		c.ParallelFor(0, n, 64, func(c *ityr.Ctx, lo, hi int64) {
			v := ityr.Checkout(c, ps.Slice(lo, hi), ityr.Write)
			for i := range v {
				v[i] = particle{X: float64(lo) + float64(i), Mass: 2, ID: lo + int64(i)}
			}
			ityr.Checkin(c, ps.Slice(lo, hi), ityr.Write)
		})
		c.ParallelFor(0, n, 64, func(c *ityr.Ctx, lo, hi int64) {
			v := ityr.Checkout(c, ps.Slice(lo, hi), ityr.ReadWrite)
			for i := range v {
				if v[i].ID != lo+int64(i) || v[i].Mass != 2 {
					t.Errorf("particle %d corrupted: %+v", lo+int64(i), v[i])
				}
				v[i].VX = v[i].X * 2
			}
			ityr.Checkin(c, ps.Slice(lo, hi), ityr.ReadWrite)
		})
		v := ityr.Checkout(c, ps.Slice(100, 101), ityr.Read)
		if v[0].VX != 200 {
			t.Errorf("VX = %v, want 200", v[0].VX)
		}
		ityr.Checkin(c, ps.Slice(100, 101), ityr.Read)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func ExampleLaunchRoot() {
	cfg := ityr.Config{Ranks: 4, CoresPerNode: 2, Seed: 1}
	elapsed, err := ityr.LaunchRoot(cfg, func(c *ityr.Ctx) {
		a := ityr.AllocArray[int64](c, 1024, ityr.BlockCyclicDist)
		c.ParallelFor(0, a.Len, 128, func(c *ityr.Ctx, lo, hi int64) {
			v := ityr.Checkout(c, a.Slice(lo, hi), ityr.Write)
			for i := range v {
				v[i] = 1
			}
			ityr.Checkin(c, a.Slice(lo, hi), ityr.Write)
		})
	})
	fmt.Println(err == nil, elapsed > 0)
	// Output: true true
}

// TestParsePolicy: the four -policy spellings, in plotting order, and the
// error that lists them.
func TestParsePolicy(t *testing.T) {
	for i, s := range []string{"nocache", "wt", "wb", "lazy"} {
		if got, err := ityr.ParsePolicy(s); err != nil || got != ityr.Policies[i] {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", s, got, err, ityr.Policies[i])
		}
	}
	if _, err := ityr.ParsePolicy("writeback"); err == nil || !strings.Contains(err.Error(), "nocache, wt, wb, lazy") {
		t.Errorf("ParsePolicy(writeback) error = %v; want one listing the valid set", err)
	}
}

// TestSPMDOneSidedRing drives the SPMD region's one-sided surface on a
// 4-rank ring: each rank Puts into its right neighbour's segment, and after
// Flush and Barrier finds its left neighbour's value in its own.
func TestSPMDOneSidedRing(t *testing.T) {
	const ranks = 4
	rt := ityr.NewRuntime(ityr.Config{Ranks: ranks, CoresPerNode: 2})
	win := rt.NewWin(8)
	got := make([]uint64, ranks)
	var charged ityr.Time
	err := rt.Run(func(s *ityr.SPMD) {
		me := s.Rank()
		win.PutUint64(s, uint64(100+me), (me+1)%ranks, 0)
		s.Flush()
		s.Barrier()
		got[me] = binary.LittleEndian.Uint64(win.Seg(s))
		if me == 0 {
			t0 := s.Now()
			s.Charge(1234)
			charged = s.Now() - t0
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for me, v := range got {
		if want := uint64(100 + (me+ranks-1)%ranks); v != want {
			t.Errorf("rank %d reads %d, want its left neighbour's %d", me, v, want)
		}
	}
	if charged != 1234 {
		t.Errorf("Charge(1234) advanced Now by %d", charged)
	}
}

// TestSPMDPutOutOfRange: a Put to a rank outside the window panics with a
// classifiable error.
func TestSPMDPutOutOfRange(t *testing.T) {
	const ranks = 4
	rt := ityr.NewRuntime(ityr.Config{Ranks: ranks, CoresPerNode: 2})
	win := rt.NewWin(8)
	var err error
	func() {
		defer func() { err, _ = recover().(error) }()
		_ = rt.Run(func(s *ityr.SPMD) {
			if s.Rank() == 0 {
				win.PutUint64(s, 1, ranks, 0)
			}
		})
	}()
	if !errors.Is(err, rma.ErrRankOutOfRange) {
		t.Fatalf("PutUint64 to rank %d panicked with %v, want rma.ErrRankOutOfRange", ranks, err)
	}
}

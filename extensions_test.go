package ityr_test

// Tests for the implemented extension the paper lists as future work:
// locality-aware victim selection (§8). It must preserve the memory model.

import (
	"fmt"
	"testing"

	"ityr"
	tr "ityr/internal/trace"
)

func extCfg(ranks int, pol ityr.Policy, locality bool) ityr.Config {
	cfg := testCfg(ranks, pol)
	cfg.Sched.LocalityAware = locality
	return cfg
}

// TestExtensionsPreserveResults runs the typed array round trip with the
// extension off and on.
func TestExtensionsPreserveResults(t *testing.T) {
	const n = 4096
	for _, locality := range []bool{false, true} {
		t.Run(fmt.Sprintf("locality=%v", locality), func(t *testing.T) {
			var sum int64
			_, err := ityr.LaunchRoot(extCfg(8, ityr.WriteBackLazy, locality), func(c *ityr.Ctx) {
				a := ityr.AllocArray[int32](c, n, ityr.BlockCyclicDist)
				ityr.Generate(c, a, func(i int64) int32 { return int32(i) })
				ityr.ForEach(c, a, ityr.ReadWrite, func(i int64, v *int32) { *v *= 2 })
				s := ityr.Sum(c, ityr.GSpan[int32]{Ptr: a.Ptr, Len: a.Len})
				sum = int64(s)
			})
			if err != nil {
				t.Fatal(err)
			}
			// Sum of 2i for i<4096 truncated to int32 accumulation.
			var want int32
			for i := int64(0); i < n; i++ {
				want += int32(2 * i)
			}
			if sum != int64(want) {
				t.Fatalf("sum = %d, want %d", sum, want)
			}
		})
	}
}

// TestLocalityAwareEndToEnd checks the whole runtime under hierarchical
// stealing on a memory-heavy workload.
func TestLocalityAwareEndToEnd(t *testing.T) {
	var sum int64
	cfg := extCfg(16, ityr.WriteBackLazy, true)
	cfg.CoresPerNode = 4
	_, err := ityr.LaunchRoot(cfg, func(c *ityr.Ctx) {
		a := ityr.AllocArray[int64](c, 20000, ityr.BlockCyclicDist)
		ityr.Generate(c, a, func(i int64) int64 { return i % 13 })
		sum = ityr.Sum(c, a)
	})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for i := int64(0); i < 20000; i++ {
		want += i % 13
	}
	if sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}

// TestTracing runs a traced execution and checks the log captured the
// scheduler and cache events.
func TestTracing(t *testing.T) {
	cfg := testCfg(8, ityr.WriteBackLazy)
	cfg.Trace = true
	rt := ityr.NewRuntime(cfg)
	err := rt.Run(func(s *ityr.SPMD) {
		s.RootExec(func(c *ityr.Ctx) {
			a := ityr.AllocArray[int64](c, 8192, ityr.BlockCyclicDist)
			c.ParallelFor(0, a.Len, 256, func(c *ityr.Ctx, lo, hi int64) {
				v := ityr.Checkout(c, a.Slice(lo, hi), ityr.Write)
				for i := range v {
					v[i] = 7
				}
				c.Charge(ityr.Time(hi-lo) * 100)
				ityr.Checkin(c, a.Slice(lo, hi), ityr.Write)
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	tl := rt.Trace()
	if tl.Len() == 0 {
		t.Fatal("tracing enabled but no events recorded")
	}
	if tl.Count(tr.KFork) == 0 {
		t.Error("no fork events")
	}
	// Untraced runtime must have a nil log.
	rt2 := ityr.NewRuntime(testCfg(2, ityr.WriteBack))
	if rt2.Trace() != nil {
		t.Error("trace log present without Config.Trace")
	}
}

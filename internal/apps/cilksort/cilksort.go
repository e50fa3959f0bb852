// Package cilksort is the paper's first benchmark (§6.2, Fig. 1): Cilk's
// recursive parallel merge sort over global memory with checkout/checkin.
// The sort is the library's, ityr.SortSpanWith — an ordinary program over
// the public API (§3.1) — and this package is the benchmark around it: the
// element type, the input generator and the checks.
package cilksort

import "ityr"

// Elem is the element type sorted by the benchmark (4-byte integers, as in
// the paper).
type Elem = int32

// Generate fills the span with uniformly random elements, in parallel,
// using a deterministic per-chunk splitmix64 stream.
func Generate(c *ityr.Ctx, a ityr.GSpan[Elem], seed uint64) {
	c.ParallelFor(0, a.Len, 1<<14, func(c *ityr.Ctx, lo, hi int64) {
		v := ityr.Checkout(c, a.Slice(lo, hi), ityr.Write)
		x := seed ^ uint64(lo)*0x9E3779B97F4A7C15
		for i := range v {
			x += 0x9E3779B97F4A7C15
			z := x
			z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
			z = (z ^ (z >> 27)) * 0x94D049BB133111EB
			v[i] = Elem(z ^ (z >> 31))
		}
		c.Charge(ityr.Time(hi-lo) * 2)
		ityr.Checkin(c, a.Slice(lo, hi), ityr.Write)
	})
}

// Sort sorts a using b as a temporary buffer (both must have equal length),
// with serial cutoff as in Fig. 1.
func Sort(c *ityr.Ctx, a, b ityr.GSpan[Elem], cutoff int64) {
	ityr.SortSpanWith(c, a, b, cutoff)
}

// IsSorted verifies sortedness from the root thread in parallel chunks.
func IsSorted(c *ityr.Ctx, a ityr.GSpan[Elem]) bool {
	if a.Len < 2 {
		return true
	}
	ok := true
	c.ParallelFor(0, a.Len-1, 1<<14, func(c *ityr.Ctx, lo, hi int64) {
		// Each chunk reads one element past its end to check the seams.
		v := ityr.Checkout(c, a.Slice(lo, hi+1), ityr.Read)
		for i := 0; i+1 < len(v); i++ {
			if v[i] > v[i+1] {
				ok = false
			}
		}
		c.Charge(ityr.Time(hi - lo))
		ityr.Checkin(c, a.Slice(lo, hi+1), ityr.Read)
	})
	return ok
}

// Checksum computes an order-independent checksum (sum of elements) so
// tests can verify the sort is a permutation.
func Checksum(c *ityr.Ctx, a ityr.GSpan[Elem]) int64 {
	var sum func(c *ityr.Ctx, s ityr.GSpan[Elem]) int64
	sum = func(c *ityr.Ctx, s ityr.GSpan[Elem]) int64 {
		if s.Len <= 1<<14 {
			v := ityr.Checkout(c, s, ityr.Read)
			var t int64
			for _, x := range v {
				t += int64(x)
			}
			c.Charge(ityr.Time(s.Len))
			ityr.Checkin(c, s, ityr.Read)
			return t
		}
		l, r := s.SplitTwo()
		var a, b int64
		c.ParallelInvoke(
			func(c *ityr.Ctx) { a = sum(c, l) },
			func(c *ityr.Ctx) { b = sum(c, r) },
		)
		return a + b
	}
	return sum(c, a)
}

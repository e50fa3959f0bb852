// Package cilksort implements the paper's first benchmark (§6.2, Fig. 1):
// Cilk's recursive parallel merge sort ported to global memory with
// checkout/checkin. The array is split in four, the quarters are sorted in
// parallel, merged pairwise into a temporary buffer, and merged back —
// switching to serial quicksort below the cutoff. The parallel merge
// splits by binary search on global memory, which performs the sparse
// single-element accesses whose time the paper reports as "Get" in Fig. 9.
package cilksort

import (
	"slices"
	"sync"

	"ityr"
	"ityr/internal/sim"
)

// Elem is the element type sorted by the benchmark (4-byte integers, as in
// the paper).
type Elem = int32

// Profiler categories matching Fig. 9.
const (
	CatQuicksort = "Serial Quicksort"
	CatMerge     = "Serial Merge"
	CatGet       = "Get"
)

// Analytic serial-compute cost model (A64FX-flavoured).
const (
	quickPerElemLog = 3 * sim.Nanosecond // n·log2(n) coefficient
	mergePerElem    = 4 * sim.Nanosecond
	searchPerProbe  = 6 * sim.Nanosecond
)

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
		c.Charge(sim.Time(hi-lo) * 2)
		ityr.Checkin(c, a.Slice(lo, hi), ityr.Write)
	})
}

// Sort sorts a using b as a temporary buffer (both must have equal length),
// with serial cutoff as in Fig. 1.
func Sort(c *ityr.Ctx, a, b ityr.GSpan[Elem], cutoff int64) {
	if a.Len != b.Len {
		panic("cilksort: buffer length mismatch")
	}
	if cutoff < 4 {
		cutoff = 4
	}
	cilksort(c, a, b, cutoff)
}

func log2(n int64) sim.Time {
	var k sim.Time
	for v := int64(1); v < n; v *= 2 {
		k++
	}
	return k
}

func cilksort(c *ityr.Ctx, a, b ityr.GSpan[Elem], cutoff int64) {
	if a.Len < cutoff {
		// SDC-protected leaf: sorting is replay-stable (re-sorting a
		// sorted leaf commits the same bytes), so the leaf qualifies for
		// selective replication.
		c.Protected(func() uint64 {
			v := ityr.Checkout(c, a, ityr.ReadWrite)
			sortLeaf(v)
			c.ChargeAs(CatQuicksort, sim.Time(a.Len)*quickPerElemLog*log2(a.Len))
			ityr.Checkin(c, a, ityr.ReadWrite)
			return 0
		})
		return
	}
	a12, a34 := a.SplitTwo()
	a1, a2 := a12.SplitTwo()
	a3, a4 := a34.SplitTwo()
	b12, b34 := b.SplitTwo()
	b1, b2 := b12.SplitTwo()
	b3, b4 := b34.SplitTwo()
	c.ParallelInvoke(
		func(c *ityr.Ctx) { cilksort(c, a1, b1, cutoff) },
		func(c *ityr.Ctx) { cilksort(c, a2, b2, cutoff) },
		func(c *ityr.Ctx) { cilksort(c, a3, b3, cutoff) },
		func(c *ityr.Ctx) { cilksort(c, a4, b4, cutoff) },
	)
	c.ParallelInvoke(
		func(c *ityr.Ctx) { cilkmerge(c, a1, a2, b12, cutoff) },
		func(c *ityr.Ctx) { cilkmerge(c, a3, a4, b34, cutoff) },
	)
	cilkmerge(c, b12, b34, a, cutoff)
}

// cilkmerge merges sorted s1 and s2 into d (d.Len == s1.Len + s2.Len).
func cilkmerge(c *ityr.Ctx, s1, s2, d ityr.GSpan[Elem], cutoff int64) {
	if s1.Len < s2.Len {
		s1, s2 = s2, s1 // keep the larger span first, as Cilk does
	}
	if s2.Len == 0 {
		copySpan(c, s1, d)
		return
	}
	if d.Len < cutoff {
		serialMerge(c, s1, s2, d)
		return
	}
	p1 := (s1.Len + 1) / 2
	pivot := getElem(c, s1.At(p1-1))
	p2 := lowerBound(c, s2, pivot)
	s11, s12 := s1.SplitAt(p1)
	s21, s22 := s2.SplitAt(p2)
	d1, d2 := d.SplitAt(p1 + p2)
	c.ParallelInvoke(
		func(c *ityr.Ctx) { cilkmerge(c, s11, s21, d1, cutoff) },
		func(c *ityr.Ctx) { cilkmerge(c, s12, s22, d2, cutoff) },
	)
}

// serialMerge is SDC-protected: it overwrites d from read-only sources,
// so a re-execution commits identical bytes (replay-stable).
func serialMerge(c *ityr.Ctx, s1, s2, d ityr.GSpan[Elem]) {
	c.Protected(func() uint64 {
		v1 := ityr.Checkout(c, s1, ityr.Read)
		v2 := ityr.Checkout(c, s2, ityr.Read)
		vd := ityr.Checkout(c, d, ityr.Write)
		i, j, k := 0, 0, 0
		for i < len(v1) && j < len(v2) {
			if v1[i] <= v2[j] {
				vd[k] = v1[i]
				i++
			} else {
				vd[k] = v2[j]
				j++
			}
			k++
		}
		k += copy(vd[k:], v1[i:])
		copy(vd[k:], v2[j:])
		c.ChargeAs(CatMerge, sim.Time(d.Len)*mergePerElem)
		ityr.Checkin(c, s1, ityr.Read)
		ityr.Checkin(c, s2, ityr.Read)
		ityr.Checkin(c, d, ityr.Write)
		return 0
	})
}

// sortLeaf sorts a sub-cutoff leaf on the host. The simulated cost charged
// for the leaf is the analytic quicksort model above regardless of the host
// algorithm, so this may use the fastest correct host sort: an LSD radix
// sort on the sign-flipped bit pattern (two 11-bit and one 10-bit pass),
// falling back to the standard library for tiny slices where the counting
// passes do not pay for themselves.
func sortLeaf(v []Elem) {
	if len(v) < 128 {
		slices.Sort(v)
		return
	}
	scratch := getScratch(len(v))
	defer putScratch(scratch)
	const r1, r2 = 11, 11 // pass radixes: 11 + 11 + 10 = 32 bits
	var c1 [1 << r1]int32
	var c2 [1 << r2]int32
	var c3 [1 << (32 - r1 - r2)]int32
	for _, x := range v {
		u := uint32(x) ^ 0x80000000 // order-preserving map to uint32
		c1[u&(1<<r1-1)]++
		c2[u>>r1&(1<<r2-1)]++
		c3[u>>(r1+r2)]++
	}
	exclusivePrefixSum(c1[:])
	exclusivePrefixSum(c2[:])
	exclusivePrefixSum(c3[:])
	for _, x := range v {
		u := uint32(x) ^ 0x80000000
		b := &c1[u&(1<<r1-1)]
		scratch[*b] = x
		*b++
	}
	for _, x := range scratch {
		u := uint32(x) ^ 0x80000000
		b := &c2[u>>r1&(1<<r2-1)]
		v[*b] = x
		*b++
	}
	for _, x := range v {
		u := uint32(x) ^ 0x80000000
		b := &c3[u>>(r1+r2)]
		scratch[*b] = x
		*b++
	}
	copy(v, scratch)
}

func exclusivePrefixSum(c []int32) {
	var sum int32
	for i, n := range c {
		c[i] = sum
		sum += n
	}
}

// scratchPool recycles radix-sort scratch buffers across leaves. The pool
// only affects host allocation behaviour, never simulated time.
var scratchPool sync.Pool

func getScratch(n int) []Elem {
	if s, ok := scratchPool.Get().([]Elem); ok && cap(s) >= n {
		return s[:n]
	}
	return make([]Elem, n)
}

func putScratch(s []Elem) { scratchPool.Put(s[:0]) }

// copySpan is SDC-protected for the same reason as serialMerge: a pure
// overwrite from a read-only source.
func copySpan(c *ityr.Ctx, s, d ityr.GSpan[Elem]) {
	c.Protected(func() uint64 {
		vs := ityr.Checkout(c, s, ityr.Read)
		vd := ityr.Checkout(c, d, ityr.Write)
		copy(vd, vs)
		c.ChargeAs(CatMerge, sim.Time(d.Len)*mergePerElem/2)
		ityr.Checkin(c, s, ityr.Read)
		ityr.Checkin(c, d, ityr.Write)
		return 0
	})
}

// getElem loads one element from global memory, attributed to "Get".
func getElem(c *ityr.Ctx, p ityr.GPtr[Elem]) Elem {
	l := c.Local()
	l.ProfCategory = CatGet
	v := ityr.GetVal(c, p)
	l.ProfCategory = ""
	c.Charge(searchPerProbe)
	return v
}

// lowerBound returns the first index i in sorted s with s[i] >= x, probing
// global memory element by element (the sparse access pattern of Fig. 1
// line 37).
func lowerBound(c *ityr.Ctx, s ityr.GSpan[Elem], x Elem) int64 {
	lo, hi := int64(0), s.Len
	for lo < hi {
		mid := (lo + hi) / 2
		if getElem(c, s.At(mid)) < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
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
		c.Charge(sim.Time(hi - lo))
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
			c.Charge(sim.Time(s.Len))
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

// SerialTime returns the modelled serial execution time for sorting n
// elements (the all-runtime-calls-elided baseline used for speedups in
// Fig. 8): quicksort to the cutoff plus the three merge passes per level.
func SerialTime(n int64) sim.Time {
	return sim.Time(n)*quickPerElemLog*log2(n) + sim.Time(n)*mergePerElem
}

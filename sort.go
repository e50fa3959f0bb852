package ityr

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"

	"ityr/internal/sim"
)

// Cilksort's analytic serial-compute cost model (A64FX-flavoured).
const (
	sortPerElemLog = 3 * sim.Nanosecond // n·log2(n) coefficient of a leaf's quicksort
	mergePerElem   = 4 * sim.Nanosecond
	probeCost      = 6 * sim.Nanosecond // one binary-search compare
)

// Profiler categories SortSpan and LowerBound charge their time to: the
// application rows of Fig. 9's Cilksort breakdown.
const (
	// CatQuicksort is the serial sort of the leaves below the cutoff.
	CatQuicksort = "Serial Quicksort"
	// CatMerge is the serial merges and copies below the cutoff.
	CatMerge = "Serial Merge"
	// CatGet is the single-element fetches of the merges' binary searches.
	CatGet = "Get"
)

// SortSpan sorts a global span in parallel with the Cilksort algorithm
// (Fig. 1 of the paper) for any ordered element type: 4-way recursive
// splitting, parallel merges with binary-search partitioning, and a serial
// sort below an automatically chosen cutoff that keeps each leaf's
// checkouts within the cache. A temporary buffer of equal size is
// allocated collectively and freed afterwards.
func SortSpan[T cmp.Ordered](c *Ctx, a GSpan[T]) {
	if a.Len < 2 {
		return
	}
	tmp := AllocArray[T](c, a.Len, BlockCyclicDist)
	SortSpanWith(c, a, tmp, autoGrain(c, SizeOf[T](), 3))
	c.Local().FreeCollective(tmp.Ptr.Addr())
}

// SortSpanWith sorts a using the caller's temporary buffer tmp (of equal
// length) and serial cutoff (at least 4) — the building block SortSpan
// wraps. No leaf checks out more than twice the cutoff in elements. Leaves,
// merges and copies below the cutoff run under Ctx.Protected (each is
// replay-stable) and charge the cost model to CatQuicksort and CatMerge.
func SortSpanWith[T cmp.Ordered](c *Ctx, a, tmp GSpan[T], cutoff int64) {
	if a.Len != tmp.Len {
		panic("ityr: SortSpanWith buffer length mismatch")
	}
	if cutoff < 4 {
		cutoff = 4
	}
	gsort(c, a, tmp, cutoff)
}

// SortSerialTime is the modelled serial time of sorting n elements, every
// runtime call elided: one quicksort of the whole input plus a merge pass
// (the baseline Fig. 8's speedups are taken over).
func SortSerialTime(n int64) Time {
	return sim.Time(n)*sortPerElemLog*log2(n) + sim.Time(n)*mergePerElem
}

func log2(n int64) sim.Time {
	var k sim.Time
	for v := int64(1); v < n; v *= 2 {
		k++
	}
	return k
}

func gsort[T cmp.Ordered](c *Ctx, a, b GSpan[T], cutoff int64) {
	if a.Len < cutoff {
		// Re-sorting a sorted leaf commits the same bytes: replay-stable.
		c.Protected(func() uint64 {
			v := Checkout(c, a, ReadWrite)
			sortLeaf(v)
			c.ChargeAs(CatQuicksort, sim.Time(a.Len)*sortPerElemLog*log2(a.Len))
			Checkin(c, a, ReadWrite)
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
		func(c *Ctx) { gsort(c, a1, b1, cutoff) },
		func(c *Ctx) { gsort(c, a2, b2, cutoff) },
		func(c *Ctx) { gsort(c, a3, b3, cutoff) },
		func(c *Ctx) { gsort(c, a4, b4, cutoff) },
	)
	c.ParallelInvoke(
		func(c *Ctx) { gmerge(c, a1, a2, b12, cutoff) },
		func(c *Ctx) { gmerge(c, a3, a4, b34, cutoff) },
	)
	gmerge(c, b12, b34, a, cutoff)
}

// gmerge merges sorted s1 and s2 into d (d.Len == s1.Len + s2.Len). Above
// the cutoff it splits at s1's midpoint even when s2 is empty, so a copy
// never checks out more than a leaf does (§3.3).
func gmerge[T cmp.Ordered](c *Ctx, s1, s2, d GSpan[T], cutoff int64) {
	if s1.Len < s2.Len {
		s1, s2 = s2, s1 // keep the larger span first, as Cilk does
	}
	if d.Len < cutoff {
		if s2.Len == 0 {
			copyLeaf(c, s1, d)
		} else {
			mergeLeaf(c, s1, s2, d)
		}
		return
	}
	p1 := (s1.Len + 1) / 2
	pivot := probe(c, s1.At(p1-1))
	p2 := LowerBound(c, s2, pivot)
	s11, s12 := s1.SplitAt(p1)
	s21, s22 := s2.SplitAt(p2)
	d1, d2 := d.SplitAt(p1 + p2)
	c.ParallelInvoke(
		func(c *Ctx) { gmerge(c, s11, s21, d1, cutoff) },
		func(c *Ctx) { gmerge(c, s12, s22, d2, cutoff) },
	)
}

// mergeLeaf overwrites d from read-only sources, so a re-execution commits
// identical bytes: replay-stable.
func mergeLeaf[T cmp.Ordered](c *Ctx, s1, s2, d GSpan[T]) {
	c.Protected(func() uint64 {
		v1 := Checkout(c, s1, Read)
		v2 := Checkout(c, s2, Read)
		vd := Checkout(c, d, Write)
		mergeSorted(vd, v1, v2)
		c.ChargeAs(CatMerge, sim.Time(d.Len)*mergePerElem)
		Checkin(c, s1, Read)
		Checkin(c, s2, Read)
		Checkin(c, d, Write)
		return 0
	})
}

// copyLeaf is a merge with one side empty, replay-stable for the same reason
// as mergeLeaf and charged half a merge.
func copyLeaf[T any](c *Ctx, s, d GSpan[T]) {
	c.Protected(func() uint64 {
		vs := Checkout(c, s, Read)
		vd := Checkout(c, d, Write)
		copy(vd, vs)
		c.ChargeAs(CatMerge, sim.Time(d.Len)*mergePerElem/2)
		Checkin(c, s, Read)
		Checkin(c, d, Write)
		return 0
	})
}

// probe loads one element for a binary search: its fetch is attributed to
// CatGet, and the compare is charged on top.
func probe[T any](c *Ctx, p GPtr[T]) T {
	l := c.Local()
	l.ProfCategory = CatGet
	v := GetVal(c, p)
	l.ProfCategory = ""
	c.Charge(probeCost)
	return v
}

// LowerBound returns the first index i in the sorted span with s[i] >= x,
// probing global memory element by element (the sparse access pattern of
// Fig. 1 line 37, which exercises the cache's sub-block fetching). Each
// probe's fetch is attributed to CatGet.
func LowerBound[T cmp.Ordered](c *Ctx, s GSpan[T], x T) int64 {
	lo, hi := int64(0), s.Len
	for lo < hi {
		mid := (lo + hi) / 2
		if probe(c, s.At(mid)) < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// mergeSorted merges v1 and v2 into d (len(d) == len(v1)+len(v2)), taking
// v1[i] before v2[j] iff v1[i] <= v2[j]. The loop is branch-free: the
// compare selects the element and the index to advance (CMOV/SETcc), where a
// branch mispredicts about every other element of random input.
func mergeSorted[T cmp.Ordered](d, v1, v2 []T) {
	i, j := 0, 0
	for i < len(v1) && j < len(v2) {
		a, b := v1[i], v2[j]
		x, t := b, 0
		if a <= b {
			x, t = a, 1
		}
		d[i+j] = x
		i += t
		j += 1 - t
	}
	k := i + j + copy(d[i+j:], v1[i:])
	copy(d[k:], v2[j:])
}

// sortLeaf sorts a leaf on the host. The simulated charge is the cost
// model's whatever the host algorithm, so int32 leaves (the paper's
// benchmark element) take the faster radix sort; every other type, and
// slices too short for counting passes to pay off, take slices.Sort.
func sortLeaf[T cmp.Ordered](v []T) {
	if v32, ok := any(v).([]int32); ok && len(v32) >= 128 {
		radixSort(v32)
		return
	}
	slices.Sort(v)
}

// radixWide is the longest slice radixSort sorts in 8-bit digits. A pass
// costs its 2^bits counters as well as its elements: four 8-bit passes win
// on short slices, three 11-bit ones (11 + 11 + 10 bits) on long ones, and
// they tie from 512 to 2,048 elements (BenchmarkRadixSort).
const radixWide = 1024

// radixSort is an LSD radix sort on the sign-flipped bit pattern, in digits
// sized to the slice (radixWide).
func radixSort(v []int32) {
	s := getScratch(len(v))
	if len(v) > radixWide {
		radixSortDigits(v, s.buf, &s.c11)
	} else {
		radixSortDigits(v, s.buf, &s.c8)
	}
	scratchPool.Put(s)
}

// radixCounts is a digit width, as the array of one digit's counters, and
// radixDigit a digit's place, as an array whose length is its index. Each
// instantiation of radixSortDigits and radixScatter is compiled for its
// own array shapes, so every shift and mask is a constant: an immediate
// shift, counter indexes proved in bounds, and no mask on a top digit (a
// variable shift costs 22–31% at 2,048–16,384 keys).
type (
	radixCounts interface{ [1 << 8]int32 | [1 << 11]int32 }
	radixDigit  interface {
		[0]bool | [1]bool | [2]bool | [3]bool
	}
)

// radixBits is the digit width of counters c.
func radixBits[C radixCounts](c *C) uint { return uint(bits.TrailingZeros(uint(len(*c)))) }

// radixSortDigits sorts v through buf (len(buf) == len(v)): one pass
// counts every digit, then each digit's pass scatters by it, lowest
// first. Three or four digits fit 32 bits, so counts has room for four.
func radixSortDigits[C radixCounts](v, buf []int32, counts *[4]C) {
	width, mask := radixBits(&counts[0]), uint32(len(counts[0])-1)
	digits := (32 + width - 1) / width
	clear(counts[:digits])
	for _, x := range v {
		u := uint32(x) ^ 0x80000000 // order-preserving map to uint32
		counts[0][u&mask]++
		counts[1][u>>width&mask]++
		if digits > 3 {
			counts[2][u>>(2*width)&mask]++
			counts[3][u>>(3*width)]++
		} else {
			counts[2][u>>(2*width)]++
		}
	}
	for d := range digits {
		var sum int32
		for i := range min(len(counts[d]), 1<<(32-d*width)) {
			n := counts[d][i]
			counts[d][i] = sum
			sum += n
		}
	}
	radixScatter[[0]bool](buf, v, &counts[0])
	radixScatter[[1]bool](v, buf, &counts[1])
	radixScatter[[2]bool](buf, v, &counts[2])
	if digits > 3 {
		radixScatter[[3]bool](v, buf, &counts[3])
	} else {
		copy(v, buf) // an odd number of passes ends in buf
	}
}

// radixScatter stably scatters src into dst by digit D, through the
// digit's prefix-summed counters. It is a function of its own so that its
// loop keeps its operands in registers.
func radixScatter[D radixDigit, C radixCounts](dst, src []int32, count *C) {
	var d D
	shift, mask := uint(len(d))*radixBits(count), uint32(len(*count)-1)
	if 1<<(32-shift) <= len(*count) {
		mask = ^uint32(0) // the top digit
	}
	_ = (*count)[0] // the nil check, here rather than in the loop
	for _, x := range src {
		b := &(*count)[(uint32(x)^0x80000000)>>shift&mask]
		dst[*b] = x
		*b++
	}
}

// radixScratch is radixSort's counters and buffer. scratchPool recycles it
// across leaves, so that a leaf sort allocates nothing; it only affects
// host allocation, never simulated time.
type radixScratch struct {
	c8  [4][1 << 8]int32
	c11 [4][1 << 11]int32
	buf []int32
}

var scratchPool = sync.Pool{New: func() any { return new(radixScratch) }}

func getScratch(n int) *radixScratch {
	s := scratchPool.Get().(*radixScratch)
	if cap(s.buf) < n {
		s.buf = make([]int32, n)
	}
	s.buf = s.buf[:n]
	return s
}

// IsSortedSpan reports whether the span is sorted, checking seams between
// parallel chunks.
func IsSortedSpan[T cmp.Ordered](c *Ctx, a GSpan[T]) bool {
	if a.Len < 2 {
		return true
	}
	ok := true
	grain := autoGrain(c, SizeOf[T](), 1)
	c.ParallelFor(0, a.Len-1, grain, func(c *Ctx, lo, hi int64) {
		v := Checkout(c, a.Slice(lo, hi+1), Read)
		for i := 0; i+1 < len(v); i++ {
			if v[i] > v[i+1] {
				ok = false
			}
		}
		c.Charge(sim.Time(hi - lo))
		Checkin(c, a.Slice(lo, hi+1), Read)
	})
	return ok
}

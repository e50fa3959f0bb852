package ityr

import "ityr/internal/sim"

// High-level parallel patterns for range-based algorithms, analogous to
// Itoyori's TBB/parallel-STL-like layer (§3.1). Each pattern recursively
// splits its input span into parallel leaf tasks and performs the
// checkout/checkin calls itself, picking chunk sizes small enough that a
// leaf's working set fits comfortably within the fixed-size software cache
// (§3.3: "the system can automatically determine proper chunk sizes").

// patternCPU is the modelled per-element compute cost of pattern leaves,
// on top of the user function's own work (which runs on the host).
const patternCPU = 2 * sim.Nanosecond

// autoGrain returns a leaf chunk length such that `spans` simultaneous
// checkouts of elemSize-byte elements use at most a small fraction of the
// cache.
func autoGrain(c *Ctx, elemSize uint64, spans int) int64 {
	if elemSize == 0 {
		elemSize = 1 // zero-sized element types
	}
	budget := uint64(c.Runtime().Config().Pgas.CacheSize)
	g := int64(budget / 8 / uint64(spans) / elemSize)
	if g < 1 {
		return 1
	}
	if g > 1<<16 {
		return 1 << 16 // keep enough tasks for load balancing
	}
	return g
}

// ForEach applies fn to every element of s in parallel. The mode governs
// the checkout: use Read for pure observation, ReadWrite to mutate in
// place. fn receives the global index and a pointer into the checked-out
// view.
func ForEach[T any](c *Ctx, s GSpan[T], mode Mode, fn func(i int64, v *T)) {
	grain := autoGrain(c, SizeOf[T](), 1)
	c.ParallelFor(0, s.Len, grain, func(c *Ctx, lo, hi int64) {
		part := s.Slice(lo, hi)
		v := Checkout(c, part, mode)
		for i := range v {
			fn(lo+int64(i), &v[i])
		}
		c.Charge(sim.Time(hi-lo) * patternCPU)
		Checkin(c, part, mode)
	})
}

// Fill sets every element of s to val in parallel (write-only: no data is
// fetched).
func Fill[T any](c *Ctx, s GSpan[T], val T) {
	grain := autoGrain(c, SizeOf[T](), 1)
	c.ParallelFor(0, s.Len, grain, func(c *Ctx, lo, hi int64) {
		part := s.Slice(lo, hi)
		v := Checkout(c, part, Write)
		for i := range v {
			v[i] = val
		}
		c.Charge(sim.Time(hi-lo) * patternCPU)
		Checkin(c, part, Write)
	})
}

// Generate fills s with fn(i) in parallel (write-only).
func Generate[T any](c *Ctx, s GSpan[T], fn func(i int64) T) {
	grain := autoGrain(c, SizeOf[T](), 1)
	c.ParallelFor(0, s.Len, grain, func(c *Ctx, lo, hi int64) {
		part := s.Slice(lo, hi)
		v := Checkout(c, part, Write)
		for i := range v {
			v[i] = fn(lo + int64(i))
		}
		c.Charge(sim.Time(hi-lo) * patternCPU)
		Checkin(c, part, Write)
	})
}

// Transform writes fn(src[i]) into dst[i] in parallel. src and dst must
// not overlap and must have equal length.
func Transform[S, D any](c *Ctx, src GSpan[S], dst GSpan[D], fn func(S) D) {
	if src.Len != dst.Len {
		panic("ityr: Transform length mismatch")
	}
	grain := autoGrain(c, SizeOf[S]()+SizeOf[D](), 2)
	c.ParallelFor(0, src.Len, grain, func(c *Ctx, lo, hi int64) {
		sp, dp := src.Slice(lo, hi), dst.Slice(lo, hi)
		sv := Checkout(c, sp, Read)
		dv := Checkout(c, dp, Write)
		for i := range sv {
			dv[i] = fn(sv[i])
		}
		c.Charge(sim.Time(hi-lo) * patternCPU)
		Checkin(c, sp, Read)
		Checkin(c, dp, Write)
	})
}

// Copy copies src into dst in parallel.
func Copy[T any](c *Ctx, src, dst GSpan[T]) {
	Transform(c, src, dst, func(v T) T { return v })
}

// Reduce folds s into an accumulator in parallel: acc is applied
// left-to-right within each leaf chunk, and combine merges chunk results
// (combine must be associative; id is its identity).
func Reduce[T, A any](c *Ctx, s GSpan[T], id A, combine func(A, A) A, acc func(A, T) A) A {
	grain := autoGrain(c, SizeOf[T](), 1)
	var rec func(c *Ctx, span GSpan[T]) A
	rec = func(c *Ctx, span GSpan[T]) A {
		if span.Len <= grain {
			v := Checkout(c, span, Read)
			a := id
			for _, x := range v {
				a = acc(a, x)
			}
			c.Charge(sim.Time(span.Len) * patternCPU)
			Checkin(c, span, Read)
			return a
		}
		l, r := span.SplitTwo()
		var la, ra A
		c.ParallelInvoke(
			func(c *Ctx) { la = rec(c, l) },
			func(c *Ctx) { ra = rec(c, r) },
		)
		return combine(la, ra)
	}
	return rec(c, s)
}

// Sum reduces a span of numeric values.
func Sum[T int8 | int16 | int32 | int64 | int | uint8 | uint16 | uint32 | uint64 | uint | float32 | float64](c *Ctx, s GSpan[T]) T {
	return Reduce(c, s, T(0), func(a, b T) T { return a + b }, func(a T, v T) T { return a + v })
}

// Count returns the number of elements satisfying pred.
func Count[T any](c *Ctx, s GSpan[T], pred func(T) bool) int64 {
	return Reduce(c, s, int64(0),
		func(a, b int64) int64 { return a + b },
		func(a int64, v T) int64 {
			if pred(v) {
				return a + 1
			}
			return a
		})
}

// InclusiveScan writes the running combine of src into dst (dst[i] =
// src[0] ⊕ … ⊕ src[i]) using the classic three-phase parallel scan:
// per-chunk reductions, a serial exclusive scan over the (few) chunk sums,
// and a parallel sweep applying the offsets. combine must be associative
// with identity id.
func InclusiveScan[T any](c *Ctx, src, dst GSpan[T], id T, combine func(T, T) T) {
	if src.Len != dst.Len {
		panic("ityr: InclusiveScan length mismatch")
	}
	if src.Len == 0 {
		return
	}
	grain := autoGrain(c, 2*SizeOf[T](), 2)
	nchunks := (src.Len + grain - 1) / grain
	sums := make([]T, nchunks)

	// Phase 1: reduce each chunk.
	c.ParallelFor(0, nchunks, 1, func(c *Ctx, clo, chi int64) {
		for ci := clo; ci < chi; ci++ {
			lo, hi := ci*grain, min(src.Len, (ci+1)*grain)
			sp := src.Slice(lo, hi)
			v := Checkout(c, sp, Read)
			a := id
			for _, x := range v {
				a = combine(a, x)
			}
			c.Charge(sim.Time(hi-lo) * patternCPU)
			Checkin(c, sp, Read)
			sums[ci] = a
		}
	})

	// Phase 2: serial exclusive scan over chunk sums (root task).
	offsets := make([]T, nchunks)
	run := id
	for i := range sums {
		offsets[i] = run
		run = combine(run, sums[i])
	}
	c.Charge(sim.Time(nchunks) * patternCPU)

	// Phase 3: apply the offsets in parallel.
	c.ParallelFor(0, nchunks, 1, func(c *Ctx, clo, chi int64) {
		for ci := clo; ci < chi; ci++ {
			lo, hi := ci*grain, min(src.Len, (ci+1)*grain)
			sp, dp := src.Slice(lo, hi), dst.Slice(lo, hi)
			sv := Checkout(c, sp, Read)
			dv := Checkout(c, dp, Write)
			a := offsets[ci]
			for i := range sv {
				a = combine(a, sv[i])
				dv[i] = a
			}
			c.Charge(sim.Time(hi-lo) * 2 * patternCPU)
			Checkin(c, sp, Read)
			Checkin(c, dp, Write)
		}
	})
}

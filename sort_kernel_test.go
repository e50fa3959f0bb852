package ityr

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"testing"
	"unsafe"
)

// mergeBranchy is mergeSorted's reference, the compare-and-branch merge:
// take v1[i] iff v1[i] <= v2[j].
func mergeBranchy[T cmp.Ordered](d, v1, v2 []T) {
	i, j, k := 0, 0, 0
	for i < len(v1) && j < len(v2) {
		if v1[i] <= v2[j] {
			d[k] = v1[i]
			i++
		} else {
			d[k] = v2[j]
			j++
		}
		k++
	}
	k += copy(d[k:], v1[i:])
	copy(d[k:], v2[j:])
}

// splitmix is the tests' deterministic value stream.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// checkMerges runs mergeSorted and mergeBranchy on input pairs of every
// total length 0…2,100 (in growing steps), each split with either side
// empty, a third, half and two thirds, and hands both outputs to same. The
// inputs are drawn from gen and sorted by slices.Sort, as a leaf is, unless
// unsorted.
func checkMerges[T cmp.Ordered](t *testing.T, gen func(*splitmix) T, unsorted bool, same func(got, want T) bool) {
	t.Helper()
	rng := splitmix(1)
	for n := 0; n <= 2100; n += 1 + n/16 {
		for _, n1 := range []int{0, n / 3, n / 2, n - n/3, n} {
			v1 := make([]T, n1)
			v2 := make([]T, n-n1)
			for i := range v1 {
				v1[i] = gen(&rng)
			}
			for i := range v2 {
				v2[i] = gen(&rng)
			}
			if !unsorted {
				slices.Sort(v1)
				slices.Sort(v2)
			}
			want := make([]T, n)
			got := make([]T, n)
			mergeBranchy(want, v1, v2)
			mergeSorted(got, v1, v2)
			for i := range got {
				if !same(got[i], want[i]) {
					t.Fatalf("lengths %d+%d: element %d is %v, want %v", n1, n-n1, i, got[i], want[i])
				}
			}
		}
	}
}

func equal[T comparable](a, b T) bool { return a == b }

// TestMergeSortedMatchesBranchy holds mergeSorted to mergeBranchy, value for
// value and, where equal values are distinguishable,
// byte for byte: all-equal and duplicate-heavy runs, empty sides, equal
// strings that differ in their backing arrays, and float64 −0/+0 ties and
// NaN, compared through math.Float64bits.
func TestMergeSortedMatchesBranchy(t *testing.T) {
	for _, span := range []uint64{1, 3, 1 << 32} {
		t.Run(fmt.Sprint("int32/span=", span), func(t *testing.T) {
			checkMerges(t, func(r *splitmix) int32 { return int32(r.next() % span) }, false, equal[int32])
		})
	}
	// Bytes a fault plan corrupted reach the merge unsorted.
	t.Run("int32/unsorted", func(t *testing.T) {
		checkMerges(t, func(r *splitmix) int32 { return int32(r.next() % 100) }, true, equal[int32])
	})
	t.Run("uint64", func(t *testing.T) {
		checkMerges(t, func(r *splitmix) uint64 { return r.next() >> (r.next() % 64) }, false, equal[uint64])
	})
	t.Run("string", func(t *testing.T) {
		// The concatenation gives every string its own backing array, so a
		// tie taken from the wrong side shows as a different data pointer.
		checkMerges(t, func(r *splitmix) string { return strconv.Itoa(int(r.next()%50)) + "." }, false,
			func(got, want string) bool { return unsafe.StringData(got) == unsafe.StringData(want) })
	})
	special := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}
	genFloat := func(r *splitmix) float64 {
		if x := r.next(); x%4 == 0 {
			return special[x/4%uint64(len(special))]
		} else {
			return float64(x%7) - 3
		}
	}
	sameBits := func(got, want float64) bool { return math.Float64bits(got) == math.Float64bits(want) }
	t.Run("float64", func(t *testing.T) { checkMerges(t, genFloat, false, sameBits) })
	// A merge of NaN-holding leaves is not sorted, and the next merge up
	// takes it as it is.
	t.Run("float64/unsorted", func(t *testing.T) { checkMerges(t, genFloat, true, sameBits) })
}

// TestRadixSortMatchesSlicesSort checks radixSort on both sides of its digit
// width's switch and of sortLeaf's cutoff, with the extreme keys and heavy
// duplicates.
func TestRadixSortMatchesSlicesSort(t *testing.T) {
	rng := splitmix(7)
	extremes := []int32{math.MinInt32, math.MaxInt32, -1, 0}
	for _, n := range []int{127, 128, 255, 256, 1023, radixWide, radixWide + 1, 4096, 16384} {
		for _, span := range []uint64{3, 1 << 32} {
			v := make([]int32, n)
			for i := range v {
				x := rng.next()
				if x%8 == 0 {
					v[i] = extremes[x/8%uint64(len(extremes))]
				} else {
					v[i] = int32(x >> 32 % span)
				}
			}
			want := slices.Clone(v)
			slices.Sort(want)
			radixSort(v)
			if !slices.Equal(v, want) {
				t.Fatalf("n=%d span=%d: radixSort differs from slices.Sort", n, span)
			}
		}
	}
}

// TestSortLeafAllocatesNothing: once the pool holds a buffer, a leaf sort
// takes its scratch from it and puts a pointer back, allocating nothing.
func TestSortLeafAllocatesNothing(t *testing.T) {
	for _, n := range []int{256, 4096} {
		src := make([]int32, n)
		rng := splitmix(3)
		for i := range src {
			src[i] = int32(rng.next())
		}
		v := make([]int32, n)
		allocs := testing.AllocsPerRun(100, func() {
			copy(v, src)
			sortLeaf(v)
		})
		if allocs != 0 {
			t.Errorf("n=%d: %.0f allocations a leaf sort, want 0", n, allocs)
		}
	}
}

// BenchmarkMergeKernel times the reference merge and mergeSorted on two
// sorted random int32 halves of 256 elements (a cilksort-64r leaf merge),
// cycling through `inputs` distinct pairs. A kernel timed over one fixed
// input lets the branch predictor learn it (PITFALLS.md, "a kernel benchmark
// must see the workload's inputs"); inputs=1 is there to show that,
// inputs=256 is the measurement.
func BenchmarkMergeKernel(b *testing.B) {
	const half = 256
	merges := []struct {
		name  string
		merge func(d, v1, v2 []int32)
	}{
		{"branchy", mergeBranchy[int32]},
		{"branch-free", mergeSorted[int32]},
	}
	for _, inputs := range []int{1, 256} {
		rng := splitmix(5)
		pairs := make([][2][]int32, inputs)
		for p := range pairs {
			for s := range pairs[p] {
				v := make([]int32, half)
				for i := range v {
					v[i] = int32(rng.next())
				}
				slices.Sort(v)
				pairs[p][s] = v
			}
		}
		d := make([]int32, 2*half)
		for _, m := range merges {
			b.Run(fmt.Sprintf("%s/inputs=%d", m.name, inputs), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p := &pairs[i%inputs]
					m.merge(d, p[0], p[1])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(2*half), "ns/elem")
			})
		}
	}
}

// BenchmarkRadixSort times radixSort at both digit widths, and slices.Sort,
// on random int32 slices of each length, cycling through 64 inputs: the
// crossover radixWide sits at and sortLeaf's cutoff.
func BenchmarkRadixSort(b *testing.B) {
	const inputs = 64
	for _, n := range []int{64, 128, 256, 512, 1024, 2048, 4096, 16384} {
		rng := splitmix(9)
		src := make([][]int32, inputs)
		for k := range src {
			src[k] = make([]int32, n)
			for i := range src[k] {
				src[k][i] = int32(rng.next())
			}
		}
		v := make([]int32, n)
		sorts := []struct {
			name string
			sort func([]int32)
		}{
			{"bits=8", func(v []int32) { s := getScratch(len(v)); radixSortDigits(v, s.buf, &s.c8); scratchPool.Put(s) }},
			{"bits=11", func(v []int32) { s := getScratch(len(v)); radixSortDigits(v, s.buf, &s.c11); scratchPool.Put(s) }},
			{"slices.Sort", slices.Sort[[]int32]},
		}
		for _, s := range sorts {
			b.Run(fmt.Sprintf("%s/n=%d", s.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(v, src[i%inputs])
					s.sort(v)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
			})
		}
	}
}

package region

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddMergesAdjacent(t *testing.T) {
	var s Set
	s.Add(Interval{0, 10})
	s.Add(Interval{10, 20}) // adjacent: must merge
	if len(s.Entries()) != 1 {
		t.Fatalf("set = %v, want single interval", s.String())
	}
	if !s.Contains(Interval{0, 20}) {
		t.Fatalf("set %v should contain [0,20)", s.String())
	}
}

func TestAddMergesOverlapping(t *testing.T) {
	var s Set
	s.Add(Interval{5, 15})
	s.Add(Interval{0, 10})
	s.Add(Interval{12, 30})
	if len(s.Entries()) != 1 || s.Bytes() != 30 {
		t.Fatalf("set = %v, want {[0,30)}", s.String())
	}
}

func TestAddDisjointKeepsOrder(t *testing.T) {
	var s Set
	s.Add(Interval{20, 30})
	s.Add(Interval{0, 5})
	s.Add(Interval{40, 45})
	ivs := s.Entries()
	if len(ivs) != 3 || ivs[0].Lo != 0 || ivs[1].Lo != 20 || ivs[2].Lo != 40 {
		t.Fatalf("set = %v", s.String())
	}
}

func TestSubtractSplits(t *testing.T) {
	var s Set
	s.Add(Interval{0, 100})
	s.Subtract(Interval{40, 60})
	if len(s.Entries()) != 2 || s.Bytes() != 80 {
		t.Fatalf("set = %v", s.String())
	}
	if s.Contains(Interval{40, 41}) || !s.Contains(Interval{0, 40}) || !s.Contains(Interval{60, 100}) {
		t.Fatalf("wrong coverage: %v", s.String())
	}
}

// TestMissing lists every gap of a query by repeated FirstMissing calls,
// each resuming after the previous gap.
func TestMissing(t *testing.T) {
	var s Set
	s.Add(Interval{10, 20})
	s.Add(Interval{30, 40})
	missing := func(iv Interval) []Interval {
		var gaps []Interval
		for {
			g, ok := s.FirstMissing(iv)
			if !ok {
				return gaps
			}
			gaps = append(gaps, g)
			iv.Lo = g.Hi
		}
	}
	miss := missing(Interval{0, 50})
	want := []Interval{{0, 10}, {20, 30}, {40, 50}}
	if len(miss) != len(want) {
		t.Fatalf("missing = %v, want %v", miss, want)
	}
	for i := range want {
		if miss[i] != want[i] {
			t.Fatalf("missing = %v, want %v", miss, want)
		}
	}
	if got := missing(Interval{12, 18}); len(got) != 0 {
		t.Fatalf("fully covered interval reported missing: %v", got)
	}
}

func TestEmptyIntervalNoOps(t *testing.T) {
	var s Set
	s.Add(Interval{5, 5})
	if !s.Empty() {
		t.Fatal("adding empty interval changed set")
	}
	s.Add(Interval{0, 10})
	s.Subtract(Interval{7, 7})
	if s.Bytes() != 10 {
		t.Fatal("subtracting empty interval changed set")
	}
	if !s.Contains(Interval{3, 3}) {
		t.Fatal("empty interval must always be contained")
	}
}

// refSet is a bitmap reference implementation over a small universe.
type refSet [256]bool

func (r *refSet) add(iv Interval)      { r.apply(iv, true) }
func (r *refSet) subtract(iv Interval) { r.apply(iv, false) }
func (r *refSet) apply(iv Interval, v bool) {
	for b := iv.Lo; b < iv.Hi && b < 256; b++ {
		r[b] = v
	}
}
func (r *refSet) contains(iv Interval) bool {
	for b := iv.Lo; b < iv.Hi && b < 256; b++ {
		if !r[b] {
			return false
		}
	}
	return true
}
func (r *refSet) bytes() uint64 {
	var n uint64
	for _, v := range r {
		if v {
			n++
		}
	}
	return n
}

// firstMissing is FirstMissing on the bitmap.
func (r *refSet) firstMissing(iv Interval) (Interval, bool) {
	for b := iv.Lo; b < iv.Hi; b++ {
		if !r[b] {
			e := b
			for e < iv.Hi && !r[e] {
				e++
			}
			return Interval{b, e}, true
		}
	}
	return Interval{}, false
}

// TestQuickAgainstBitmap drives random Add/Subtract sequences and checks
// the interval set against the bitmap reference, including normalization
// invariants.
func TestQuickAgainstBitmap(t *testing.T) {
	f := func(seed int64, nops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Set
		var ref refSet
		for op := 0; op < int(nops)+5; op++ {
			lo := uint64(rng.Intn(256))
			hi := lo + uint64(rng.Intn(64))
			if hi > 256 {
				hi = 256
			}
			iv := Interval{lo, hi}
			if rng.Intn(3) == 0 {
				s.Subtract(iv)
				ref.subtract(iv)
			} else {
				s.Add(iv)
				ref.add(iv)
			}
			// Invariant: normalized (sorted, disjoint, non-adjacent, non-empty).
			ivs := s.Entries()
			for i, cur := range ivs {
				if cur.Empty() {
					t.Logf("empty interval in set %v", s.String())
					return false
				}
				if i > 0 && ivs[i-1].Hi >= cur.Lo {
					t.Logf("unnormalized set %v", s.String())
					return false
				}
			}
			if s.Bytes() != ref.bytes() {
				t.Logf("byte count %d != ref %d (set %v)", s.Bytes(), ref.bytes(), s.String())
				return false
			}
		}
		// Probe random containment and first-gap queries.
		for q := 0; q < 30; q++ {
			lo := uint64(rng.Intn(256))
			hi := lo + uint64(rng.Intn(64))
			if hi > 256 {
				hi = 256
			}
			iv := Interval{lo, hi}
			if s.Contains(iv) != ref.contains(iv) {
				t.Logf("contains(%v) mismatch on %v", iv, s.String())
				return false
			}
			got, ok := s.FirstMissing(iv)
			want, wantOK := ref.firstMissing(iv)
			if ok != wantOK || got != want {
				t.Logf("FirstMissing(%v) = %v,%v on %v, want %v,%v", iv, got, ok, s.String(), want, wantOK)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAddFragmented(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var s Set
		for k := 0; k < 128; k++ {
			s.Add(Interval{uint64(k * 8), uint64(k*8 + 4)})
		}
	}
}

// TestFirstMissing checks the first-gap query on a fixed set, and against
// the bitmap on random small sets.
func TestFirstMissing(t *testing.T) {
	var s Set
	s.Add(Interval{10, 20})
	s.Add(Interval{30, 40})
	cases := []struct {
		iv   Interval
		want Interval
		ok   bool
	}{
		{Interval{0, 50}, Interval{0, 10}, true},
		{Interval{12, 18}, Interval{}, false},
		{Interval{0, 10}, Interval{0, 10}, true},
		{Interval{20, 30}, Interval{20, 30}, true},
		{Interval{15, 35}, Interval{20, 30}, true},
		{Interval{40, 45}, Interval{40, 45}, true},
		{Interval{35, 50}, Interval{40, 50}, true},
		{Interval{5, 5}, Interval{}, false},
	}
	for _, c := range cases {
		if got, ok := s.FirstMissing(c.iv); got != c.want || ok != c.ok {
			t.Fatalf("FirstMissing(%v) = %v,%v, want %v,%v", c.iv, got, ok, c.want, c.ok)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		var r Set
		var ref refSet
		for k := 0; k < rng.Intn(6); k++ {
			lo := uint64(rng.Intn(128))
			iv := Interval{lo, lo + uint64(rng.Intn(32))}
			r.Add(iv)
			ref.add(iv)
		}
		lo := uint64(rng.Intn(128))
		iv := Interval{lo, lo + uint64(rng.Intn(48))}
		got, ok := r.FirstMissing(iv)
		want, wantOK := ref.firstMissing(iv)
		if ok != wantOK || got != want {
			t.Fatalf("set %v FirstMissing(%v) = %v,%v; want %v,%v", r.String(), iv, got, ok, want, wantOK)
		}
	}
}

// BenchmarkSet times Contains, FirstMissing and Add — the calls a cache
// checkout and checkin make on a block's Valid and Dirty sets — over 64
// random sets of up to eight intervals in a 64 KiB block and 1,021 query
// intervals of up to 8 KiB, cycling through both. A query repeated on one
// set lets the branch predictor learn it (PITFALLS.md, "a kernel benchmark
// must see the workload's inputs"). Add's op is one set rebuilt from
// cleared by its eight intervals, added in random order.
func BenchmarkSet(b *testing.B) {
	const nsets, nq, span = 64, 1021, 64 << 10
	rng := rand.New(rand.NewSource(3))
	randIv := func(maxLen int) Interval {
		lo := uint64(rng.Intn(span/64)) * 64
		return Interval{lo, min(span, lo+uint64(1+rng.Intn(maxLen)))}
	}
	sets := make([]Set, nsets)
	adds := make([][]Interval, nsets)
	for i := range sets {
		for k := rng.Intn(9); k > 0; k-- {
			iv := randIv(8 << 10)
			adds[i] = append(adds[i], iv)
			sets[i].Add(iv)
		}
	}
	qs := make([]Interval, nq)
	for i := range qs {
		qs[i] = randIv(8 << 10)
	}
	var sink int
	b.Run("Contains", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if sets[i%nsets].Contains(qs[i%nq]) {
				sink++
			}
		}
	})
	b.Run("FirstMissing", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, _ := sets[i%nsets].FirstMissing(qs[i%nq])
			sink += int(m.Lo)
		}
	})
	b.Run("Add", func(b *testing.B) {
		var s Set
		for i := 0; i < b.N; i++ {
			s.Clear()
			for _, iv := range adds[i%nsets] {
				s.Add(iv)
			}
		}
	})
	_ = sink
}

// FuzzMap drives a Map[uint8] through Assign and Remove over a 64-byte
// universe and checks it after every step against a per-byte value model:
// the bytes it holds and their values, its normalization (sorted, disjoint,
// non-empty, touching entries differ in value), Bytes, Overlapping and
// FirstMissing. Each three input bytes are one step: the first picks
// Remove (low bit 0) or Assign of a value in 0…3, the next two the
// interval's start and length. `go test` runs the seeds in
// testdata/fuzz/FuzzMap; `go test -fuzz FuzzMap ./internal/region` explores.
func FuzzMap(f *testing.F) {
	// Touching equal values merge on the left, on the right and across a
	// filled hole; a different value splits; Remove splits and spans.
	f.Add([]byte{1, 20, 10, 1, 10, 10, 1, 30, 10, 1, 45, 5, 1, 40, 5})
	f.Add([]byte{1, 0, 23, 3, 5, 3, 1, 4, 6, 0, 2, 12, 5, 0, 20, 0, 0, 23})
	f.Add([]byte{3, 0, 20, 3, 30, 10, 5, 18, 14, 3, 16, 16, 0, 10, 23, 0, 40, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const n = 64
		var m Map[uint8]
		var model [n]int // -1 = absent
		for i := range model {
			model[i] = -1
		}
		for k := 0; k+3 <= len(ops); k += 3 {
			lo := uint64(ops[k+1] % n)
			iv := Interval{lo, min(n, lo+uint64(ops[k+2]%24))}
			if ops[k]&1 == 0 {
				m.Remove(iv)
			} else {
				m.Assign(iv, ops[k]>>1&3)
			}
			for b := iv.Lo; b < iv.Hi; b++ {
				model[b] = -1
				if ops[k]&1 != 0 {
					model[b] = int(ops[k] >> 1 & 3)
				}
			}

			got := [n]int{}
			for i := range got {
				got[i] = -1
			}
			es := m.Entries()
			for i, e := range es {
				if e.Empty() || e.Hi > n || i > 0 && (es[i-1].Hi > e.Lo || es[i-1].Hi == e.Lo && es[i-1].Val == e.Val) {
					t.Fatalf("step %d: entries not normalized: %v", k/3, es)
				}
				for b := e.Lo; b < e.Hi; b++ {
					got[b] = int(e.Val)
				}
			}
			var held uint64
			for b := range model {
				if got[b] != model[b] {
					t.Fatalf("step %d: byte %d holds %d, model %d: %v", k/3, b, got[b], model[b], es)
				}
				if model[b] >= 0 {
					held++
				}
			}
			if m.Bytes() != held {
				t.Fatalf("step %d: Bytes() = %d, model %d", k/3, m.Bytes(), held)
			}

			q := Interval{iv.Lo / 2, min(n, iv.Hi+8)}
			ov := m.Overlapping(q)
			for i, e := range es {
				in := !e.Intersect(q).Empty()
				if in != (len(ov) > 0 && e.Lo >= ov[0].Lo && e.Lo <= ov[len(ov)-1].Lo) {
					t.Fatalf("step %d: Overlapping(%v) = %v, entry %d %v", k/3, q, ov, i, e)
				}
			}
			var want Interval
			for b := q.Lo; b < q.Hi; b++ {
				if model[b] < 0 {
					if want.Empty() {
						want = Interval{b, b + 1}
					} else if want.Hi == b {
						want.Hi++
					}
				}
			}
			if gap, ok := m.FirstMissing(q); gap != want || ok != !want.Empty() {
				t.Fatalf("step %d: FirstMissing(%v) = %v,%v, model %v", k/3, q, gap, ok, want)
			}
		}
	})
}

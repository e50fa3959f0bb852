// Package region implements byte-granularity interval maps, and is the one
// place in the tree that keeps, splits and merges sorted, disjoint
// intervals. A Map gives each of its half-open intervals [Lo, Hi) one
// value; the checkout validator's last-writer ledger is a Map of write
// records. A Set is a Map whose value is empty: the software cache's
// valid-region and dirty-region tracking (mb.validRegions in Fig. 4 of the
// paper).
package region

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Interval is a half-open byte range [Lo, Hi).
type Interval struct {
	Lo, Hi uint64
}

// Empty reports whether the interval contains no bytes.
func (iv Interval) Empty() bool { return iv.Lo >= iv.Hi }

// Len returns the number of bytes in the interval.
func (iv Interval) Len() uint64 {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Intersect returns the overlap of two intervals (possibly empty).
func (iv Interval) Intersect(o Interval) Interval {
	lo, hi := max(iv.Lo, o.Lo), min(iv.Hi, o.Hi)
	if lo >= hi {
		return Interval{}
	}
	return Interval{lo, hi}
}

func (iv Interval) String() string { return fmt.Sprintf("[%d,%d)", iv.Lo, iv.Hi) }

// Entry is one interval of a Map and the value of its bytes.
type Entry[V comparable] struct {
	Interval
	Val V
}

// Map is a sorted list of disjoint, non-empty intervals, each with one
// value. Its one normalization rule: adjacent intervals with equal values
// are merged. Every operation preserves it. The zero value is an empty map
// ready to use.
type Map[V comparable] struct {
	es []Entry[V]
}

// Entries returns the entries in ascending order. The slice aliases the
// map's storage: it must not be modified, nor kept across a change.
func (m *Map[V]) Entries() []Entry[V] { return m.es }

// Clear removes every entry, retaining capacity.
func (m *Map[V]) Clear() { m.es = m.es[:0] }

// Empty reports whether the map holds no bytes.
func (m *Map[V]) Empty() bool { return len(m.es) == 0 }

// Bytes returns the number of bytes the map holds.
func (m *Map[V]) Bytes() uint64 {
	var n uint64
	for _, e := range m.es {
		n += e.Len()
	}
	return n
}

// CopyFrom makes m a copy of o, reusing m's storage.
func (m *Map[V]) CopyFrom(o *Map[V]) { m.es = append(m.es[:0], o.es...) }

// first returns the index of the first entry that ends after addr.
func (m *Map[V]) first(addr uint64) int {
	return sort.Search(len(m.es), func(i int) bool { return m.es[i].Hi > addr })
}

// span returns the index range [i, j) of the entries overlapping iv.
func (m *Map[V]) span(iv Interval) (i, j int) {
	i = m.first(iv.Lo)
	for j = i; j < len(m.es) && m.es[j].Lo < iv.Hi; j++ {
	}
	return i, j
}

// Overlapping returns the entries overlapping iv, in ascending order,
// unclipped: the first may start before iv and the last end after it. The
// slice aliases the map's storage, like Entries.
func (m *Map[V]) Overlapping(iv Interval) []Entry[V] {
	if iv.Empty() {
		return nil
	}
	i, j := m.span(iv)
	return m.es[i:j]
}

// Assign gives every byte of iv the value v.
func (m *Map[V]) Assign(iv Interval, v V) {
	if !iv.Empty() {
		m.splice(iv, &v)
	}
}

// Remove drops every byte of iv from the map.
func (m *Map[V]) Remove(iv Interval) {
	if !iv.Empty() {
		m.splice(iv, nil)
	}
}

// splice replaces the entries overlapping the non-empty iv by their parts
// outside it and, unless v is nil, by iv itself with value *v, merged with
// the equal-valued entries it touches: one shift of the entries after iv.
func (m *Map[V]) splice(iv Interval, v *V) {
	i, j := m.span(iv)
	if v != nil && i > 0 && m.es[i-1].Hi == iv.Lo {
		i-- // a touching neighbour may merge
	}
	if v != nil && j < len(m.es) && m.es[j].Lo == iv.Hi {
		j++
	}
	var buf [3]Entry[V]
	out := buf[:0]
	if i < j && m.es[i].Lo < iv.Lo {
		out = append(out, Entry[V]{Interval{m.es[i].Lo, iv.Lo}, m.es[i].Val})
	}
	if v != nil {
		out = appendMerged(out, Entry[V]{iv, *v})
	}
	if i < j && m.es[j-1].Hi > iv.Hi {
		out = appendMerged(out, Entry[V]{Interval{iv.Hi, m.es[j-1].Hi}, m.es[j-1].Val})
	}
	m.es = slices.Replace(m.es, i, j, out...)
}

// appendMerged appends e to out, or extends out's last entry by it when
// they touch and have equal values.
func appendMerged[V comparable](out []Entry[V], e Entry[V]) []Entry[V] {
	if n := len(out); n > 0 && out[n-1].Hi == e.Lo && out[n-1].Val == e.Val {
		out[n-1].Hi = e.Hi
		return out
	}
	return append(out, e)
}

// FirstMissing returns the lowest run of iv's bytes the map does not hold,
// and whether there is one: the next transfer of a cache block's fetch
// loop, resolved against its current valid set.
func (m *Map[V]) FirstMissing(iv Interval) (Interval, bool) {
	lo := iv.Lo
	for k := m.first(lo); k < len(m.es) && m.es[k].Lo < iv.Hi; k++ {
		if m.es[k].Lo > lo {
			return Interval{lo, m.es[k].Lo}, true
		}
		lo = m.es[k].Hi
	}
	if lo < iv.Hi {
		return Interval{lo, iv.Hi}, true
	}
	return Interval{}, false
}

// Set is a set of bytes: a Map whose value is empty, so touching intervals
// always merge. The zero value is an empty set ready to use.
type Set struct {
	Map[struct{}]
}

// Add unions iv into the set.
func (s *Set) Add(iv Interval) { s.Assign(iv, struct{}{}) }

// Subtract removes iv from the set.
func (s *Set) Subtract(iv Interval) { s.Remove(iv) }

// Contains reports whether the whole of iv is in the set. The empty
// interval always is.
func (s *Set) Contains(iv Interval) bool {
	_, miss := s.FirstMissing(iv)
	return !miss
}

func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range s.es {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(e.Interval.String())
	}
	b.WriteByte('}')
	return b.String()
}

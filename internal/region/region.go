// Package region implements byte-granularity interval sets, the data
// structure behind the software cache's valid-region and dirty-region
// tracking (mb.validRegions in Fig. 4 of the paper).
//
// A Set holds a normalized (sorted, disjoint, non-adjacent) list of
// half-open intervals [Lo, Hi). All operations preserve normalization.
package region

import (
	"fmt"
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

// Set is a normalized set of byte intervals. The zero value is an empty set
// ready to use.
type Set struct {
	ivs []Interval
}

// Clear removes all intervals, retaining capacity.
func (s *Set) Clear() { s.ivs = s.ivs[:0] }

// Empty reports whether the set contains no bytes.
func (s *Set) Empty() bool { return len(s.ivs) == 0 }

// NumIntervals returns the number of maximal intervals in the set.
func (s *Set) NumIntervals() int { return len(s.ivs) }

// Bytes returns the total number of bytes covered.
func (s *Set) Bytes() uint64 {
	var n uint64
	for _, iv := range s.ivs {
		n += iv.Len()
	}
	return n
}

// Intervals returns the intervals in ascending order. The returned slice
// aliases internal storage and must not be modified or retained across
// mutations.
func (s *Set) Intervals() []Interval { return s.ivs }

// Add unions iv into the set, merging adjacent and overlapping intervals.
func (s *Set) Add(iv Interval) {
	if iv.Empty() {
		return
	}
	// Find insertion window: all intervals that overlap or touch iv.
	i := 0
	for i < len(s.ivs) && s.ivs[i].Hi < iv.Lo {
		i++
	}
	j := i
	for j < len(s.ivs) && s.ivs[j].Lo <= iv.Hi {
		j++
	}
	if i < j {
		iv.Lo = min(iv.Lo, s.ivs[i].Lo)
		iv.Hi = max(iv.Hi, s.ivs[j-1].Hi)
	}
	s.ivs = append(s.ivs[:i], append([]Interval{iv}, s.ivs[j:]...)...)
}

// Subtract removes iv from the set, splitting intervals as needed.
func (s *Set) Subtract(iv Interval) {
	if iv.Empty() || len(s.ivs) == 0 {
		return
	}
	out := s.ivs[:0]
	var extra []Interval
	for _, cur := range s.ivs {
		ov := cur.Intersect(iv)
		if ov.Empty() {
			extra = append(extra, cur)
			continue
		}
		if cur.Lo < ov.Lo {
			extra = append(extra, Interval{cur.Lo, ov.Lo})
		}
		if ov.Hi < cur.Hi {
			extra = append(extra, Interval{ov.Hi, cur.Hi})
		}
	}
	s.ivs = append(out, extra...)
}

// Contains reports whether the whole of iv is covered by the set. The empty
// interval is always contained.
func (s *Set) Contains(iv Interval) bool {
	if iv.Empty() {
		return true
	}
	for _, cur := range s.ivs {
		if cur.Lo <= iv.Lo && iv.Hi <= cur.Hi {
			return true
		}
	}
	return false
}

// Missing returns the parts of iv not covered by the set, in ascending
// order: iv \ s. This is the fetch-region computation of Fig. 4 line 19.
func (s *Set) Missing(iv Interval) []Interval {
	if iv.Empty() {
		return nil
	}
	var out []Interval
	lo := iv.Lo
	for _, cur := range s.ivs {
		if cur.Hi <= lo {
			continue
		}
		if cur.Lo >= iv.Hi {
			break
		}
		if cur.Lo > lo {
			out = append(out, Interval{lo, min(cur.Lo, iv.Hi)})
		}
		lo = max(lo, cur.Hi)
		if lo >= iv.Hi {
			return out
		}
	}
	if lo < iv.Hi {
		out = append(out, Interval{lo, iv.Hi})
	}
	return out
}

// FirstMissing returns the lowest part of iv not covered by the set, and
// whether one exists. Equivalent to Missing(iv)[0] without allocating: the
// software cache's fetch loop resolves its next missing interval against
// the block's current valid set before every transfer instead of building
// the missing list.
func (s *Set) FirstMissing(iv Interval) (Interval, bool) {
	if iv.Empty() {
		return Interval{}, false
	}
	lo := iv.Lo
	for _, cur := range s.ivs {
		if cur.Hi <= lo {
			continue
		}
		if cur.Lo >= iv.Hi {
			break
		}
		if cur.Lo > lo {
			return Interval{lo, min(cur.Lo, iv.Hi)}, true
		}
		lo = max(lo, cur.Hi)
		if lo >= iv.Hi {
			return Interval{}, false
		}
	}
	if lo < iv.Hi {
		return Interval{lo, iv.Hi}, true
	}
	return Interval{}, false
}

// Overlap returns the parts of iv covered by the set, in ascending order:
// iv ∩ s.
func (s *Set) Overlap(iv Interval) []Interval {
	var out []Interval
	for _, cur := range s.ivs {
		ov := cur.Intersect(iv)
		if !ov.Empty() {
			out = append(out, ov)
		}
	}
	return out
}

// AddSet unions another set into this one.
func (s *Set) AddSet(o *Set) {
	for _, iv := range o.ivs {
		s.Add(iv)
	}
}

func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, iv := range s.ivs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(iv.String())
	}
	b.WriteByte('}')
	return b.String()
}

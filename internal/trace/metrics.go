// The "itoyori-metrics/v1" document and the fixed-bucket histograms in it.
// The layers count events in their own Stats structs and the recorder owns
// the live histograms; Runtime.MetricsSnapshot assembles the document from
// both when asked, so there is no registry to keep in step with either.

package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// MetricsSchema identifies the metrics document format.
const MetricsSchema = "itoyori-metrics/v1"

// MetricsDoc is the "itoyori-metrics/v1" document. Go's JSON encoder sorts
// map keys, so two identical runs write byte-identical documents.
type MetricsDoc struct {
	Schema     string                       `json:"schema"`
	Labels     map[string]string            `json:"labels,omitempty"`
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// WriteJSON writes the document as indented JSON.
func (d MetricsDoc) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// Histogram is a fixed-bucket histogram over int64 observations (virtual
// nanoseconds, bytes, ...). Bucket i counts observations v <= Bounds[i];
// the final implicit bucket counts everything larger.
type Histogram struct {
	bounds []int64
	counts []uint64
	sum    int64
	n      uint64
	min    int64
	max    int64
}

// NewHistogram creates a histogram with the given strictly increasing
// upper bounds. An implicit +Inf bucket is appended.
func NewHistogram(bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("trace: histogram bounds not increasing at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
}

// Snap returns the histogram's snapshot form.
func (h *Histogram) Snap() HistogramSnapshot {
	return HistogramSnapshot{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Count:  h.n,
		Sum:    h.sum,
		Min:    h.min,
		Max:    h.max,
	}
}

// HistogramSnapshot is the serialized form of one histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has len(Bounds)+1 entries,
	// the last counting observations above the final bound.
	Bounds []int64  `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Count  uint64   `json:"count"`
	Sum    int64    `json:"sum"`
	Min    int64    `json:"min"`
	Max    int64    `json:"max"`
}

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// first, each factor times the previous (rounded up to stay strictly
// increasing).
func ExpBuckets(first int64, factor float64, n int) []int64 {
	if first < 1 || factor <= 1 || n < 1 {
		panic("trace: ExpBuckets needs first >= 1, factor > 1, n >= 1")
	}
	out := make([]int64, n)
	v := float64(first)
	for i := 0; i < n; i++ {
		b := int64(v)
		if i > 0 && b <= out[i-1] {
			b = out[i-1] + 1
		}
		out[i] = b
		v *= factor
	}
	return out
}

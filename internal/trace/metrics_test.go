package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	for _, v := range []int64{1, 10, 11, 100, 101, 1000, 1001, 5000} {
		h.Observe(v)
	}
	s := h.Snap()
	want := []uint64{2, 2, 2, 2} // <=10, <=100, <=1000, >1000
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%+v)", i, s.Counts[i], w, s)
		}
	}
	if s.Count != 8 || s.Sum != 7224 || s.Min != 1 || s.Max != 5000 {
		t.Fatalf("count/sum/min/max = %d/%d/%d/%d, want 8/7224/1/5000", s.Count, s.Sum, s.Min, s.Max)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(500, 2, 5)
	want := []int64{500, 1000, 2000, 4000, 8000}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
	// A factor close to 1 must still produce strictly increasing bounds.
	b = ExpBuckets(1, 1.01, 10)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not strictly increasing: %v", b)
		}
	}
}

// The metrics document marshals with sorted keys, so equal documents are
// equal bytes whatever order their maps were filled in.
func TestMetricsJSONStable(t *testing.T) {
	mk := func(names ...string) MetricsDoc {
		d := MetricsDoc{Schema: MetricsSchema, Counters: map[string]uint64{}}
		for _, n := range names {
			d.Counters[n] = 1
		}
		return d
	}
	var w1, w2 bytes.Buffer
	if err := mk("a_ops", "b_ops").WriteJSON(&w1); err != nil {
		t.Fatal(err)
	}
	if err := mk("b_ops", "a_ops").WriteJSON(&w2); err != nil {
		t.Fatal(err)
	}
	out := w1.String()
	if out != w2.String() {
		t.Fatalf("document JSON not byte-stable:\n%s\nvs\n%s", out, w2.String())
	}
	if !strings.Contains(out, `"schema": "itoyori-metrics/v1"`) {
		t.Fatalf("missing schema marker in %s", out)
	}
	if strings.Index(out, "a_ops") > strings.Index(out, "b_ops") {
		t.Fatalf("counters not sorted in JSON output:\n%s", out)
	}
}

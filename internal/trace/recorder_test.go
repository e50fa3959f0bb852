package trace

import (
	"slices"
	"strings"
	"testing"

	"ityr/internal/netmodel"
	"ityr/internal/profile"
)

// catsOnly is a recorder with every optional consumer off: only the
// always-on category totals listen.
func catsOnly(ranks int) (*Recorder, *Categories) {
	r := NewRecorder(ranks, nil, nil)
	return r, r.Categories()
}

func TestCategoryTotals(t *testing.T) {
	r, c := catsOnly(4)
	r.Span(0, KGet, 0, 100, 0, 0)
	r.Span(1, KGet, 0, 50, 0, 0)
	r.Span(2, KCheckout, 0, 30, 0, 0)
	r.SpanAs("Custom", 0, KCompute, 0, 10, 0, 0)
	r.SpanAs("Custom", 1, KCompute, 0, 20, 0, 0)
	for name, want := range map[string]int64{
		"Get": 150, "Checkout": 30, "Custom": 30, "never-registered": 0,
	} {
		if got := c.Total(name); int64(got) != want {
			t.Errorf("Total(%q) = %d, want %d", name, got, want)
		}
	}
}

// Kinds that share a category (the two acquire fences, the release
// write-back passes) sum into it.
func TestKindsShareCategories(t *testing.T) {
	r, c := catsOnly(1)
	r.Span(0, KAcquire, 0, 5, 0, 0)
	r.Span(0, KMigrate, 0, 7, 0, 0)
	r.Span(0, KRelease, 0, 11, 0, 0)
	r.Span(0, KWriteBackAll, 0, 13, 0, 0)
	r.Span(0, KLazyWriteBackAll, 0, 17, 0, 0)
	if c.Total("Acquire") != 12 || c.Total("Release") != 24 || c.Total("Lazy Release") != 17 {
		t.Fatalf("Acquire=%d Release=%d Lazy Release=%d, want 12 24 17",
			c.Total("Acquire"), c.Total("Release"), c.Total("Lazy Release"))
	}
}

// SpanAs charges the named category in place of the kind's own — a runtime
// name ("Get", as cilksort's binary search uses) lands in the runtime
// category, not a second one of the same name.
func TestSpanAsRedirectsCategory(t *testing.T) {
	r, c := catsOnly(1)
	r.SpanAs("Get", 0, KCheckout, 0, 40, 8, 0)
	r.Span(0, KGet, 0, 2, 8, 0)
	r.SpanAs("Phase", 0, KCheckin, 0, 9, 8, 0)
	if c.Total("Get") != 42 || c.Total("Checkout") != 0 || c.Total("Phase") != 9 || c.Total("Checkin") != 0 {
		t.Fatalf("breakdown = %v", c.Breakdown(0))
	}
}

func TestBreakdownOthers(t *testing.T) {
	r, c := catsOnly(2)
	r.Span(0, KGet, 0, 400, 0, 0)
	r.Span(1, KPut, 0, 100, 0, 0)
	bd := c.Breakdown(1000) // 1000 ns elapsed × 2 ranks = 2000 total
	if bd["Get"] != 400 || bd["Put"] != 100 || bd["Others"] != 1500 {
		t.Fatalf("breakdown = %v, want Get 400, Put 100, Others 1500", bd)
	}
	// Zero-time categories are omitted; Others is always present.
	if len(bd) != 3 {
		t.Fatalf("breakdown = %v, want exactly Get, Put and Others", bd)
	}
}

func TestBreakdownOthersClampedAtZero(t *testing.T) {
	r, c := catsOnly(1)
	r.Span(0, KGet, 0, 5000, 0, 0)
	if bd := c.Breakdown(1000); bd["Others"] != 0 { // categories exceed elapsed
		t.Fatalf("others = %d, want 0", bd["Others"])
	}
	// Zero elapsed (a region that completed instantly, or Format before any
	// region ran) degrades to the raw times with Others at 0 and 0% shares.
	if bd := c.Breakdown(0); bd["Get"] != 5000 || bd["Others"] != 0 {
		t.Fatalf("breakdown at zero elapsed = %v", bd)
	}
	_, empty := catsOnly(2)
	if s := empty.Format(0); !strings.Contains(s, "0.0%") {
		t.Fatalf("zero-elapsed format has no 0%% share:\n%s", s)
	}
}

// ResetRank clears runtime and application categories alike, in the
// resetting rank's column only; an application category registered by its
// first charge survives the reset.
func TestCategoriesReset(t *testing.T) {
	r, c := catsOnly(2)
	r.Span(0, KGet, 0, 100, 0, 0)
	r.Span(1, KGet, 0, 30, 0, 0)
	r.SpanAs("Serial Quicksort", 1, KCompute, 0, 77, 0, 0)
	c.ResetRank(1)
	if c.Total("Get") != 100 || c.Total("Serial Quicksort") != 0 {
		t.Fatalf("after rank 1's reset: %v, want rank 0's Get alone", c.Breakdown(0))
	}
	c.ResetRank(0)
	if c.Total("Get") != 0 {
		t.Fatalf("after both resets: %v", c.Breakdown(0))
	}
	r.SpanAs("Serial Quicksort", 0, KCompute, 0, 5, 0, 0)
	if c.Total("Serial Quicksort") != 5 {
		t.Fatal("category lost after reset")
	}
}

func TestFormatOrdering(t *testing.T) {
	r, c := catsOnly(1)
	r.SpanAs("Small", 0, KCompute, 0, 10, 0, 0)
	r.SpanAs("Large", 0, KCompute, 0, 1000, 0, 0)
	r.SpanAs("Tie B", 0, KCompute, 0, 50, 0, 0)
	r.SpanAs("Tie A", 0, KCompute, 0, 50, 0, 0)
	s := c.Format(1110)
	order := []string{"Large", "Tie A", "Tie B", "Small", "Others"}
	last := -1
	for _, name := range order {
		i := strings.Index(s, name)
		if i < 0 || i < last {
			t.Fatalf("want order %v (largest first, ties by name), got:\n%s", order, s)
		}
		last = i
	}
}

// One Span call reaches every consumer its kind routes to and no other;
// an instant reaches the ring alone; and the kinds added with the recorder
// (KIdle, ...) never enter the ring.
func TestRecorderRouting(t *testing.T) {
	log := New()
	prof := profile.New(2, netmodel.Default(2))
	r := NewRecorder(2, log, prof)

	r.Span(1, KSteal, 100, 40, 0, 7)
	r.Span(0, KCheckout, 0, 25, 4096, 0)
	r.Instant(0, KRelease, 50, 1, 0) // NoCache fence: nothing to account
	r.Span(0, KIdle, 60, 30, 0, 0)
	r.Instant(0, KCacheMiss, 5, 32, 0)

	evs := log.Events()
	var kinds []Kind
	for _, e := range evs {
		kinds = append(kinds, e.Kind)
	}
	if want := []Kind{KCacheMiss, KCheckout, KRelease, KSteal}; !slices.Equal(kinds, want) {
		t.Fatalf("ring kinds = %v, want %v", kinds, want)
	}
	if e := evs[3]; e.T != 100 || e.Dur != 40 || e.Rank != 1 || e.Arg2 != 7 {
		t.Errorf("steal event = %+v", e)
	}

	ru := prof.Snapshot().Rollup
	if ru.StealNs != 40 || ru.IdleNs != 30 || ru.TaskNs != 0 {
		t.Errorf("profile spans = %+v", ru)
	}

	h := r.Histograms()
	if h["uth_steal_latency_ns"].Sum != 40 || h["uth_failed_steal_latency_ns"].Count != 0 {
		t.Errorf("steal histograms = %+v / %+v", h["uth_steal_latency_ns"], h["uth_failed_steal_latency_ns"])
	}
	if h["pgas_checkout_bytes"].Sum != 4096 {
		t.Errorf("checkout-bytes histogram observed %d, want the span's Arg 4096", h["pgas_checkout_bytes"].Sum)
	}
	if h["pgas_release_ns"].Count != 0 {
		t.Errorf("an instant reached the release histogram: %+v", h["pgas_release_ns"])
	}
	if got := r.Categories().Total("Checkout"); got != 25 {
		t.Errorf("Checkout total = %d, want 25", got)
	}
}

// A nil recorder is the layers' off-switch.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	if n := testing.AllocsPerRun(10, func() {
		r.Span(0, KSteal, 0, 1, 0, 0)
		r.SpanAs("x", 0, KCheckout, 0, 1, 0, 0)
		r.Instant(0, KFork, 0, 0, 0)
		r.RMA(0, 1, OpPut, 8)
		r.SpanAs("x", 0, KCompute, 0, 1, 0, 0)
	}); n != 0 {
		t.Fatalf("nil recorder allocated %v times per run", n)
	}
}

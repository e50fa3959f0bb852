package fault

import (
	"testing"

	"ityr/internal/sim"
)

// TestFailRMADeterministic: two injectors over the same plan replay the
// same decision stream; a different seed gives a different stream.
func TestFailRMADeterministic(t *testing.T) {
	mk := func(seed int64) []bool {
		in := NewInjector(PlanFlakyRMA(seed), 4)
		var out []bool
		for i := 0; i < 2000; i++ {
			out = append(out, in.FailRMA(i%4, (i+1)%4))
		}
		return out
	}
	a, b := mk(7), mk(7)
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identical-seed injectors", i)
		}
		if a[i] {
			fails++
		}
	}
	if fails == 0 {
		t.Fatalf("2%% FailProb injected nothing in 2000 ops")
	}
	c := mk(8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatalf("seed change did not change the decision stream")
	}
}

// TestFailRMAWindow: RMA failures have no window: at FailProb 1 every op
// fails, from the first on.
func TestFailRMAWindow(t *testing.T) {
	p := PlanFlakyRMA(7)
	p.RMA.FailProb = 1
	in := NewInjector(p, 2)
	for i := 0; i < 2; i++ {
		if !in.FailRMA(0, 1) {
			t.Errorf("op %d did not fail at FailProb 1", i)
		}
	}
}

// TestRetryBudget: there is no retry budget: at FailProb 1 every op of
// every origin fails, and Stats counts each injection.
func TestRetryBudget(t *testing.T) {
	p := PlanFlakyRMA(7)
	p.RMA.FailProb = 1
	in := NewInjector(p, 2)
	fails := 0
	for i := 0; i < 10; i++ {
		if in.FailRMA(0, 1) {
			fails++
		}
	}
	if fails != 10 {
		t.Errorf("rank 0 injected %d failures, want 10", fails)
	}
	if !in.FailRMA(1, 0) {
		t.Errorf("rank 1's op should fail too")
	}
	if got := in.Stats().Injected; got != 11 {
		t.Errorf("Injected = %d, want 11", got)
	}
}

// TestBackoffBounds: exponential growth from BackoffMin, capped at
// BackoffMax plus a quarter of jitter, never below BackoffMin.
func TestBackoffBounds(t *testing.T) {
	in := NewInjector(PlanFlakyRMA(7), 2) // backoff 2µs .. 64µs
	min, max := 2*sim.Microsecond, 64*sim.Microsecond
	prevBase := sim.Time(0)
	for attempt := 1; attempt <= 12; attempt++ {
		d := in.Backoff(0, attempt)
		if d < min {
			t.Errorf("attempt %d: backoff %d below min %d", attempt, d, min)
		}
		if lim := max + max/4; d > lim {
			t.Errorf("attempt %d: backoff %d above cap+jitter %d", attempt, d, lim)
		}
		base := min << (attempt - 1)
		if base > max {
			base = max
		}
		if d < base {
			t.Errorf("attempt %d: backoff %d below exponential base %d", attempt, d, base)
		}
		if base < prevBase {
			t.Errorf("exponential base decreased")
		}
		prevBase = base
	}
}

// TestLinkExtraWindows: latency, slow-factor and pair filters compose, and
// nothing applies outside the window.
func TestLinkExtraWindows(t *testing.T) {
	p := Plan{Seed: 7, Links: []LinkWindow{
		{From: 100, To: 200, Src: -1, Dst: -1, ExtraLatency: 10},
		{From: 0, To: 0, Src: 2, Dst: 3, SlowFactor: 3},
	}}
	in := NewInjector(p, 4)
	if got := in.LinkExtra(50, 0, 1, 1000); got != 0 {
		t.Errorf("before window: extra = %d, want 0", got)
	}
	if got := in.LinkExtra(150, 0, 1, 1000); got != 10 {
		t.Errorf("inside latency window: extra = %d, want 10", got)
	}
	// 2→3 matches the open-ended slow link: base*(3-1) = 2000, plus the
	// latency window when inside it.
	if got := in.LinkExtra(150, 2, 3, 1000); got != 2010 {
		t.Errorf("slow link inside window: extra = %d, want 2010", got)
	}
	if got := in.LinkExtra(500, 2, 3, 1000); got != 2000 {
		t.Errorf("slow link after window: extra = %d, want 2000", got)
	}
	if got := in.LinkExtra(500, 3, 2, 1000); got != 0 {
		t.Errorf("reverse direction should not match Src/Dst filter: got %d", got)
	}
}

// TestCorruptDeterministic: the task corruption stream replays
// bit-for-bit — same decisions AND same flip signatures — across
// identical-seed injectors, and moves with the seed.
func TestCorruptDeterministic(t *testing.T) {
	type flip struct {
		val uint64
		ok  bool
	}
	mk := func(seed int64) (task []flip) {
		in := NewInjector(Plan{Seed: seed, Corrupt: Corruption{TaskProb: 0.1}}, 4)
		for i := 0; i < 2000; i++ {
			s, ok := in.CorruptTask(i % 4)
			task = append(task, flip{s, ok})
		}
		return task
	}
	t1, t2 := mk(7), mk(7)
	hits := 0
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("decision %d differs across identical-seed injectors", i)
		}
		if t1[i].ok {
			hits++
			if t1[i].val == 0 {
				t.Fatalf("task flip signature must be nonzero")
			}
		}
	}
	if hits == 0 {
		t.Fatalf("corruption injected nothing in 2000 ops")
	}
	t3 := mk(8)
	same := 0
	for i := range t1 {
		if t1[i] == t3[i] {
			same++
		}
	}
	if same == len(t1) {
		t.Fatalf("seed change did not change the corruption stream")
	}
}

// TestCorruptWindowAndBudget: corruption has no window and no flip budget:
// at probability 1 every draw flips; the audit trail records where flips
// landed.
func TestCorruptWindowAndBudget(t *testing.T) {
	in := NewInjector(Plan{Seed: 7, Corrupt: Corruption{TaskProb: 1}}, 2)
	flips := 0
	for i := 0; i < 20; i++ {
		if _, ok := in.CorruptTask(0); ok {
			flips++
		}
	}
	if flips != 20 {
		t.Errorf("rank 0 injected %d flips, want 20", flips)
	}
	if _, ok := in.CorruptTask(1); !ok {
		t.Errorf("rank 1's task should flip too")
	}
	if tf := in.TaskFlipsByRank(); tf[0] != 20 || tf[1] != 1 {
		t.Errorf("audit trail = %v, want [20 1]", tf)
	}
	if st := in.Stats(); st.TaskFlips != 21 {
		t.Errorf("Stats flips = %d, want 21", st.TaskFlips)
	}
}

// TestCorruptDisabledZeroAlloc: the disarmed corruption path allocates
// nothing and consumes no stream state, so arming an empty Corruption is
// observably identical to no corruption at all.
func TestCorruptDisabledZeroAlloc(t *testing.T) {
	in := NewInjector(PlanFlakyRMA(7), 2)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := in.CorruptTask(0); ok {
			t.Fatalf("disarmed task stream injected a flip")
		}
	})
	if allocs != 0 {
		t.Errorf("disarmed corruption path allocates %.1f/op, want 0", allocs)
	}
	if in.taskSeq[0] != 0 {
		t.Errorf("disarmed calls consumed stream state")
	}
}

// TestLinkJitterDeterministic: jitter is bounded by the window's Jitter
// and replays identically for identical injectors.
func TestLinkJitterDeterministic(t *testing.T) {
	p := Plan{Seed: 7, Links: []LinkWindow{
		{From: 0, To: 0, Src: -1, Dst: -1, Jitter: 100},
	}}
	a, b := NewInjector(p, 2), NewInjector(p, 2)
	varied := false
	var prev sim.Time = -1
	for i := 0; i < 100; i++ {
		ea := a.LinkExtra(sim.Time(i), 0, 1, 1000)
		eb := b.LinkExtra(sim.Time(i), 0, 1, 1000)
		if ea != eb {
			t.Fatalf("op %d: jitter differs across identical injectors (%d vs %d)", i, ea, eb)
		}
		if ea < 0 || ea > 100 {
			t.Fatalf("op %d: jitter %d outside [0, 100]", i, ea)
		}
		if prev >= 0 && ea != prev {
			varied = true
		}
		prev = ea
	}
	if !varied {
		t.Errorf("jitter never varied over 100 ops")
	}
}

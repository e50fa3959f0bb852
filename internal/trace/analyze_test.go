package trace

import (
	"encoding/json"
	"strings"
	"testing"
)

// fixtureLog builds a tiny two-rank fork-join trace by hand:
//
//	rank 0, tid 1 (root): runs [0,200), forks tid 2, runs [200,300),
//	                      blocks at its join.
//	rank 1:               steals tid 2 over [200,250), runs it [250,450),
//	                      tid 2 ends into parent tid 1, which resumes here
//	                      (a blocked join migrates to the child's rank),
//	                      joins at 450 and ends (root).
//
// Hand-computed ground truth: work 500, critical path 400 (root's 200
// pre-fork + child's 200, which exceeds the root continuation's 100),
// elapsed 450, rank 0 busy 300/idle 150, rank 1 busy 200 + steal 50 +
// idle 200.
func fixtureLog() *Log {
	l := New()
	l.rec(Event{T: 0, Dur: 200, Rank: 0, Kind: KTaskRun, Arg: 1})
	l.rec(Event{T: 200, Rank: 0, Kind: KFork, Arg: 2, Arg2: 1})
	l.rec(Event{T: 200, Dur: 100, Rank: 0, Kind: KTaskRun, Arg: 1})
	l.rec(Event{T: 200, Dur: 50, Rank: 1, Kind: KSteal, Arg2: 2})
	l.rec(Event{T: 250, Dur: 200, Rank: 1, Kind: KTaskRun, Arg: 2})
	l.rec(Event{T: 450, Rank: 1, Kind: KTaskEnd, Arg: 2, Arg2: 1})
	l.rec(Event{T: 450, Rank: 1, Kind: KJoin, Arg: 2, Arg2: 1})
	l.rec(Event{T: 450, Rank: 1, Kind: KTaskEnd, Arg: 1})
	return l
}

func TestAnalyzeFixture(t *testing.T) {
	a := Analyze(fixtureLog(), 2)
	if a.Work != 500 {
		t.Errorf("Work = %d, want 500", a.Work)
	}
	if a.CritPath != 400 {
		t.Errorf("CritPath = %d, want 400", a.CritPath)
	}
	if a.Elapsed != 450 {
		t.Errorf("Elapsed = %d, want 450", a.Elapsed)
	}
	if a.Parallelism != 1.25 {
		t.Errorf("Parallelism = %v, want 1.25", a.Parallelism)
	}
	if a.LiveTasks != 0 {
		t.Errorf("LiveTasks = %d, want 0", a.LiveTasks)
	}
	want := []RankActivity{
		{Rank: 0, Busy: 300, Steal: 0, Idle: 150},
		{Rank: 1, Busy: 200, Steal: 50, Idle: 200},
	}
	if len(a.Ranks) != len(want) {
		t.Fatalf("len(Ranks) = %d, want %d", len(a.Ranks), len(want))
	}
	for i, w := range want {
		if a.Ranks[i] != w {
			t.Errorf("Ranks[%d] = %+v, want %+v", i, a.Ranks[i], w)
		}
	}
}

// A truncated trace (missing join/end events) must be flagged rather than
// silently reporting a too-short critical path.
func TestAnalyzeTruncated(t *testing.T) {
	l := New()
	l.rec(Event{T: 0, Dur: 200, Rank: 0, Kind: KTaskRun, Arg: 1})
	l.rec(Event{T: 200, Rank: 0, Kind: KFork, Arg: 2, Arg2: 1})
	a := Analyze(l, 1)
	if a.LiveTasks != 2 {
		t.Errorf("LiveTasks = %d, want 2 (root + unjoined child)", a.LiveTasks)
	}
	var b strings.Builder
	a.WriteReport(&b)
	if !strings.Contains(b.String(), "truncated") {
		t.Errorf("report does not flag truncation:\n%s", b.String())
	}
}

// Extra ranks that recorded nothing still get an all-idle row.
func TestAnalyzeIdleRanks(t *testing.T) {
	a := Analyze(fixtureLog(), 4)
	if len(a.Ranks) != 4 {
		t.Fatalf("len(Ranks) = %d, want 4", len(a.Ranks))
	}
	if r := a.Ranks[3]; r.Busy != 0 || r.Steal != 0 || r.Idle != a.Elapsed {
		t.Errorf("Ranks[3] = %+v, want all-idle over %d", r, a.Elapsed)
	}
}

func TestWriteReportContents(t *testing.T) {
	var b strings.Builder
	Analyze(fixtureLog(), 2).WriteReport(&b)
	out := b.String()
	for _, want := range []string{"critical path", "parallelism", "1.25", "busy"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// metricsDoc decodes a hand-written metrics document.
func metricsDoc(t *testing.T, doc string) *MetricsDoc {
	t.Helper()
	var m MetricsDoc
	if err := json.Unmarshal([]byte(doc), &m); err != nil {
		t.Fatal(err)
	}
	return &m
}

// The steal section comes from the metrics document's counters and
// histograms, not from the spans.
func TestStealReport(t *testing.T) {
	m := metricsDoc(t, `{
		"schema": "itoyori-metrics/v1",
		"counters": {"uth_steals": 3, "uth_failed_steals": 5},
		"histograms": {
			"uth_steal_latency_ns": {"bounds": [500, 1000], "counts": [1, 2, 0], "count": 3, "sum": 2100, "min": 100, "max": 1000},
			"uth_failed_steal_latency_ns": {"bounds": [500, 1000], "counts": [5, 0, 0], "count": 5, "sum": 1000, "min": 200, "max": 200}
		}
	}`)
	var b strings.Builder
	stealReport(&b, m)
	out := b.String()
	for _, want := range []string{"3 ok, 5 failed", "steal latency (ns): count 3  mean 700  min 100  max 1000",
		"<= 1000", "failed-steal latency (ns): count 5  mean 200"} {
		if !strings.Contains(out, want) {
			t.Errorf("steal report missing %q:\n%s", want, out)
		}
	}
}

func TestCacheReport(t *testing.T) {
	m := metricsDoc(t, `{
		"schema": "itoyori-metrics/v1",
		"labels": {"policy": "Write-Back"},
		"counters": {
			"pgas_hit_bytes": 300, "pgas_fetch_bytes": 100,
			"pgas_checkout_calls": 7, "pgas_evictions": 2,
			"pgas_writeback_ops": 3, "pgas_writeback_bytes": 64
		}
	}`)
	var b strings.Builder
	cacheReport(&b, "", m)
	out := b.String()
	for _, want := range []string{"Write-Back", "75.0%", "checkouts  7", "evictions 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("cache report missing %q:\n%s", want, out)
		}
	}
}

// A dump without a metrics document reports the spans and nothing the
// metrics would have given.
func TestReportWithoutMetrics(t *testing.T) {
	var b strings.Builder
	Report(&b, "fixture", fixtureLog(), Meta{Ranks: 2})
	out := b.String()
	if !strings.HasPrefix(out, "trace fixture: ") || !strings.Contains(out, "critical path") {
		t.Errorf("report lacks its header or the span analysis:\n%s", out)
	}
	for _, absent := range []string{"steals", "cache", "resilience", "streaming profile", "validator"} {
		if strings.Contains(out, absent) {
			t.Errorf("report without sections prints %q:\n%s", absent, out)
		}
	}
}

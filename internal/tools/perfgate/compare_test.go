package main

import (
	"strings"
	"testing"

	"ityr/internal/bench"
)

func sampleReport() *bench.Report {
	return &bench.Report{
		Schema: bench.Schema,
		Suite:  "perf",
		Scale:  "smoke",
		Config: map[string]any{"coalesce": true, "ranks": 32.0, "host_cpus": 2.0},
		Host:   []string{"host_cpus", "host_ms"},
		Rows: map[string]bench.Metrics{
			"cilksort": {"sim_ns": 484333, "round_trips": 387, "rma_bytes": 495988, "host_ms": 12.5},
			"halo":     {"sim_ns": 188101, "round_trips": 336, "rma_bytes": 2688, "host_ms": 3.1},
			"claim/x":  {"holds": 1, "does_not": 0},
		},
	}
}

func TestCompareIdenticalPasses(t *testing.T) {
	if f, _ := compare(sampleReport(), sampleReport(), 0.02); len(f) != 0 {
		t.Fatalf("identical reports produced findings: %v", f)
	}
}

func TestCompareWithinTolerancePasses(t *testing.T) {
	cur := sampleReport()
	cur.Rows["cilksort"]["sim_ns"] *= 1.01 // +1% < 2% tolerance
	if f, _ := compare(sampleReport(), cur, 0.02); len(f) != 0 {
		t.Fatalf("1%% drift under 2%% tolerance produced findings: %v", f)
	}
}

// TestComparePerturbedMetricFails is the gate's reason to exist: take the
// baseline, hand-perturb one thing, and the gate must fail with exactly one
// finding naming it — or, for what the report lists as host-dependent, stay
// silent however far it moves.
func TestComparePerturbedMetricFails(t *testing.T) {
	cases := []struct {
		name    string
		perturb func(*bench.Report)
		want    string // "" = no finding
	}{
		{"sim time regression", func(r *bench.Report) { r.Rows["cilksort"]["sim_ns"] *= 1.1 }, "cilksort sim_ns regressed"},
		{"round trips regression", func(r *bench.Report) { r.Rows["cilksort"]["round_trips"] += 100 }, "cilksort round_trips regressed"},
		{"rma bytes regression", func(r *bench.Report) { r.Rows["cilksort"]["rma_bytes"] *= 2 }, "cilksort rma_bytes regressed"},
		{"unre-baselined improvement", func(r *bench.Report) { r.Rows["cilksort"]["round_trips"] /= 2 }, "cilksort round_trips improved past tolerance"},
		{"claim stops holding", func(r *bench.Report) { r.Rows["claim/x"]["holds"] = 0 }, "claim/x holds flipped: baseline 1, current 0"},
		{"claim starts holding", func(r *bench.Report) { r.Rows["claim/x"]["does_not"] = 1 }, "claim/x does_not flipped: baseline 0, current 1"},
		{"host metric 10x", func(r *bench.Report) { r.Rows["cilksort"]["host_ms"] *= 10 }, ""},
		{"host metric absent", func(r *bench.Report) { delete(r.Rows["halo"], "host_ms") }, ""},
		{"host config differs", func(r *bench.Report) { r.Config["host_cpus"] = 64.0 }, ""},
		{"metric missing", func(r *bench.Report) { delete(r.Rows["halo"], "rma_bytes") }, "halo rma_bytes in baseline but missing"},
		{"metric not in baseline", func(r *bench.Report) { r.Rows["halo"]["steals"] = 7 }, "halo steals not in baseline"},
		// Every row differs too, but reports of different suites are not
		// comparable: one finding, not a metric storm.
		{"suite mismatch", func(r *bench.Report) {
			r.Suite = "taskbench"
			for _, m := range r.Rows {
				m["sim_ns"] *= 3
			}
		}, "not comparable: baseline is perf at smoke scale"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := sampleReport()
			tc.perturb(cur)
			f, _ := compare(sampleReport(), cur, 0.02)
			if tc.want == "" {
				if len(f) != 0 {
					t.Fatalf("want no finding, got %v", f)
				}
				return
			}
			if len(f) != 1 {
				t.Fatalf("want exactly 1 finding, got %d: %v", len(f), f)
			}
			if !strings.Contains(f[0], tc.want) {
				t.Fatalf("finding %q does not contain %q", f[0], tc.want)
			}
		})
	}
}

// TestCompareCountsDrift: the gate says when nothing moved at all, and
// otherwise names the largest move, inside the tolerance or past it.
func TestCompareCountsDrift(t *testing.T) {
	// 3 + 3 gated values in the two rows (host_ms is not gated), 2 verdicts.
	if _, d := compare(sampleReport(), sampleReport(), 0.02); d.String() != "0 of 8 gated values differ" {
		t.Fatalf("identical reports: %q", d)
	}
	cur := sampleReport()
	cur.Rows["cilksort"]["sim_ns"] *= 1.01
	cur.Rows["halo"]["round_trips"] -= 1 // -0.298%
	cur.Rows["halo"]["host_ms"] *= 10    // not gated: not counted
	f, d := compare(sampleReport(), cur, 0.02)
	if len(f) != 0 {
		t.Fatalf("drift within tolerance produced findings: %v", f)
	}
	if want := "2 of 8 gated values differ, the largest cilksort sim_ns by +1%"; d.String() != want {
		t.Fatalf("drift = %q, want %q", d, want)
	}
	cur.Rows["halo"]["rma_bytes"] *= 0.9 // past tolerance: a finding, and still counted
	if f, d = compare(sampleReport(), cur, 0.02); len(f) != 1 || d.differ != 3 || d.largest != "halo rma_bytes" {
		t.Fatalf("findings %v, drift %q: want one finding and halo rma_bytes the largest of 3 moves", f, d)
	}
}

func TestCompareExperimentSetMismatch(t *testing.T) {
	cur := sampleReport()
	delete(cur.Rows, "halo")
	cur.Rows["uts"] = bench.Metrics{"sim_ns": 1, "round_trips": 1, "rma_bytes": 1}
	f, _ := compare(sampleReport(), cur, 0.02)
	if len(f) != 2 {
		t.Fatalf("want 2 findings (missing halo, extra uts), got %d: %v", len(f), f)
	}
	if !strings.Contains(f[0], `"halo"`) || !strings.Contains(f[0], "missing") {
		t.Errorf("first finding should report missing halo, got %q", f[0])
	}
	if !strings.Contains(f[1], `"uts"`) || !strings.Contains(f[1], "re-baseline") {
		t.Errorf("second finding should report unbaselined uts, got %q", f[1])
	}
}

func TestCompareKnobOrScaleMismatch(t *testing.T) {
	cur := sampleReport()
	cur.Config["ranks"] = 16.0
	f, _ := compare(sampleReport(), cur, 0.02)
	if len(f) != 1 || !strings.Contains(f[0], "ranks=32") || !strings.Contains(f[0], "ranks=16") {
		t.Fatalf("want a single finding showing both rank counts, got %v", f)
	}

	cur = sampleReport()
	cur.Scale = "quick"
	f, _ = compare(sampleReport(), cur, 0.02)
	if len(f) != 1 || !strings.Contains(f[0], "smoke scale") || !strings.Contains(f[0], "quick scale") {
		t.Fatalf("want a single finding showing both scales, got %v", f)
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	base := sampleReport()
	base.Rows["halo"]["rma_bytes"] = 0

	if f, _ := compare(base, base, 0.02); len(f) != 0 {
		t.Fatalf("zero-vs-zero produced findings: %v", f)
	}
	cur := sampleReport() // halo rma_bytes back to 2688
	f, _ := compare(base, cur, 0.02)
	if len(f) != 1 || !strings.Contains(f[0], "baseline 0") {
		t.Fatalf("nonzero against zero baseline should fail, got %v", f)
	}
}

// TestReadRejectsOldSchemas pins that a file written before
// itoyori-bench/v1 (here the perf/v1 shape BENCH_baseline.json had) is
// refused with the command that replaces it, never half-read as a report
// with no rows.
func TestReadRejectsOldSchemas(t *testing.T) {
	old := `{"schema": "itoyori-perf/v1", "scale": "smoke", "coalesce": true, "prefetch": 2,
	         "experiments": {"halo": {"sim_ns": 188101, "round_trips": 336, "rma_bytes": 2688}}}`
	_, err := bench.ReadReport(strings.NewReader(old))
	if err == nil {
		t.Fatal("ReadReport accepted an itoyori-perf/v1 file")
	}
	for _, want := range []string{"itoyori-perf/v1", bench.Schema, "make baseline-<suite>"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

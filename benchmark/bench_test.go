package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

// manifest is BENCHMARK.json, the contract the driver holds the benchmark
// to: the Go side must print exactly the names and units it declares.
type manifest struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestMain lets the all-workloads driver re-execute this test binary as
// the benchmark, the way it re-executes itself.
func TestMain(m *testing.M) {
	if os.Getenv("BENCHMARK_AS_CHILD") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 11, seconds: 1, trace: trace, units: true, out: t.TempDir(), scale: tinyScale}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics fails unless got has exactly the declared names and units.
func checkMetrics(t *testing.T, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, m := range got {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q has characters outside letters, digits, _ . -", name)
		}
		if unit, ok := want[name]; !ok {
			t.Errorf("printed metric %q is not in BENCHMARK.json", name)
		} else if unit != m.Unit {
			t.Errorf("metric %q printed in %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("BENCHMARK.json metric %q was not printed", name)
		}
	}
}

func TestWorkloadsMatchManifest(t *testing.T) {
	m := readManifest(t)
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, -seconds defaults to %v", m.RunSeconds, defaultSeconds)
	}
	for _, sc := range []scale{fullScale, tinyScale} {
		if len(sc.workloads) != len(m.Workloads) {
			t.Fatalf("%d workloads, BENCHMARK.json has %d", len(sc.workloads), len(m.Workloads))
		}
		for i, wl := range sc.workloads {
			if wl.name != m.Workloads[i].Name || !nameRE.MatchString(wl.name) {
				t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, wl.name, m.Workloads[i].Name)
			}
		}
	}
	if len(endToEnd) != len(m.EndToEnd) {
		t.Fatalf("%d end-to-end metrics, BENCHMARK.json has %d", len(endToEnd), len(m.EndToEnd))
	}
	for i, e := range endToEnd {
		if j := m.EndToEnd[i]; e.name != j.Name || e.unit != j.Unit || e.bound != j.Bound {
			t.Errorf("end-to-end metric %d is %+v, BENCHMARK.json says %+v", i, e, j)
		}
	}
}

func TestEndToEndRun(t *testing.T) {
	m := readManifest(t)
	want := map[string]string{}
	for _, e := range m.EndToEnd {
		want[e.Name] = e.Unit
	}
	for _, wl := range tinyScale.workloads {
		res, err := runWorkload(io.Discard, tinyOptions(t, wl.name, false))
		if err != nil {
			t.Fatal(err)
		}
		// failed == 0 also says every pass reproduced the first pass's
		// simulated result and layer counts.
		if !res.Correct || res.Failed != 0 || res.Attempted != 3 {
			t.Errorf("%s: correct %v, attempted %d, failed %d; want true, 3, 0", wl.name, res.Correct, res.Attempted, res.Failed)
		}
		checkMetrics(t, res.Metrics, want)
		for name, v := range res.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", wl.name, name, v.Value)
			}
		}
	}
}

func TestCountsRepeat(t *testing.T) {
	for _, wl := range tinyScale.workloads {
		var first counts
		for i := 0; i < 2; i++ {
			var p pass
			if err := wl.run(knobs{seed: 3, hostProcs: 1}, &p); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = p.counts()
			} else if p.counts() != first {
				t.Errorf("%s: counts %v, first pass had %v", wl.name, p.counts(), first)
			}
		}
		if first[cSimEvents] == 0 {
			t.Errorf("%s: no events counted in the timed phase", wl.name)
		}
	}
}

func TestBrokenCheckIsCounted(t *testing.T) {
	o := tinyOptions(t, "utsmem-64r", false)
	o.scale.workloads = append([]workload(nil), tinyScale.workloads...)
	o.scale.workloads[1].want = "1" // the tree has more nodes than that
	res, err := runWorkload(io.Discard, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted || res.Attempted != 3 {
		t.Errorf("correct %v, attempted %d, failed %d; want false, 3, 3", res.Correct, res.Attempted, res.Failed)
	}
}

func TestTracedRun(t *testing.T) {
	m := readManifest(t)
	want := map[string]string{}
	for _, e := range m.PerLayer {
		want[e.Name] = e.Unit
	}
	o := tinyOptions(t, "forkjoin-4096r", true)
	res, err := runWorkload(io.Discard, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct %v, failed %d of %d", res.Correct, res.Failed, res.Attempted)
	}
	checkMetrics(t, res.Metrics, want)

	spans, err := readSpans(filepath.Join(o.out, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	names := checkSpans(t, spans)
	var missing []string
	for _, n := range []string{"run", "forkjoin-4096r", "warmup", "pass", "pass.profiled", "setup", "timed", "verify", "layers", "sim.handoff_ns", "repeat"} {
		if !names[n] {
			missing = append(missing, n)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("span file lacks spans named %v", missing)
	}
}

// checkSpans fails unless IDs are unique and every child span lies inside
// its parent; it returns the set of span names.
func checkSpans(t *testing.T, spans []span) map[string]bool {
	t.Helper()
	byID := map[int]span{}
	names := map[string]bool{}
	for _, s := range spans {
		byID[s.ID] = s
		names[s.Name] = true
	}
	if len(byID) != len(spans) {
		t.Errorf("%d spans share %d IDs", len(spans), len(byID))
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d %q ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %d %q has unknown parent %d", s.ID, s.Name, s.Parent)
		} else if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d %q [%d,%d] is not inside its parent %q [%d,%d]", s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	return names
}

func TestAllWorkloadsDriver(t *testing.T) {
	t.Setenv("BENCHMARK_AS_CHILD", "1")
	o := tinyOptions(t, "", true)
	o.tiny = true
	results, err := runAll(io.Discard, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range tinyScale.workloads {
		if res := results[wl.name]; !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct %v, failed %d of %d", wl.name, res.Correct, res.Failed, res.Attempted)
		}
	}
	// What no workload changes is measured in the first child only; what
	// depends on the workload, in every child.
	for _, name := range []string{"sim.handoff_ns", "sim.shard2_speedup"} {
		if _, ok := results["cilksort-64r"].Metrics[name]; !ok {
			t.Errorf("first child did not report %s", name)
		}
		if _, ok := results["utsmem-64r"].Metrics[name]; ok {
			t.Errorf("second child repeated %s", name)
		}
	}
	for _, wl := range tinyScale.workloads {
		if _, ok := results[wl.name].Metrics["host.gomaxprocs_penalty"]; !ok {
			t.Errorf("%s: no host.gomaxprocs_penalty", wl.name)
		}
	}
	spans, err := readSpans(filepath.Join(o.out, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	names := checkSpans(t, spans)
	for _, wl := range tinyScale.workloads {
		if !names[wl.name] {
			t.Errorf("merged span file lacks workload %s", wl.name)
		}
	}

	// A child that fails is a harness error, not a result.
	self, _ := os.Executable()
	if _, err := runChild(io.Discard, self, []string{"-workload", "no-such-workload"}); err == nil {
		t.Error("a crashed child was accepted as a result")
	}
}

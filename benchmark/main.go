// Command benchmark is the repo's host-time benchmark: four long, repeated
// workloads timed end to end on the host clock, the per-layer counts and
// unit costs that explain them, and one traced run. README.md has the
// metric and workload tables and how the numbers relate.
//
//	benchmark -workload NAME -seed S -seconds T -trace 0|1   one workload, one process
//	benchmark [-trace 1]                                     all four, one child process each
//	benchmark -selfcheck                                     four full runs, set A against set B
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// metric is one reported value; result is the last line a one-workload
// run prints.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics with the share of the parent's
// median by which each may worsen; BENCHMARK.json carries the same bounds.
var endToEnd = []struct {
	name, unit string
	bound      float64
}{
	{"wall_s", "s", 0.25},
	{"setup_s", "s", 0.25},
	{"peak_rss_mb", "MB", 0.10},
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 25

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	units    bool   // with trace: also measure what no workload changes (micro-drivers, sim.shard2_speedup)
	out      string // directory for trace.json
	tiny     bool
	scale    scale
}

func main() {
	var o options
	var trace int
	var selfcheck bool
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process (default: all four, one child process each)")
	flag.Int64Var(&o.seed, "seed", 11, "seeds steal-victim choice and the cilksort input")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "how long one workload's run measures")
	flag.IntVar(&trace, "trace", 0, "1: the traced run (per-layer metrics, spans); 0: end-to-end metrics")
	flag.BoolVar(&o.units, "units", true, "with -trace 1, also measure what is the same for every workload: the micro-drivers and sim.shard2_speedup")
	flag.StringVar(&o.out, "out", filepath.Join("benchmark", "out"), "directory the traced run writes trace.json to")
	flag.BoolVar(&o.tiny, "tiny", false, "test scale: 8-64 ranks, 2 passes")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run everything four times and compare runs 1,3 with runs 2,4")
	flag.Parse()
	if flag.NArg() > 0 || trace < 0 || trace > 1 || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = trace == 1
	o.scale = fullScale
	if o.tiny {
		o.scale = tinyScale
	}

	var err error
	switch {
	case o.workload != "":
		var res result
		if res, err = runWorkload(os.Stdout, o); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
	case selfcheck:
		err = runSelfcheck(os.Stdout, o)
	default:
		_, err = runAll(os.Stdout, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runAll runs every workload in its own child process, one after another,
// and returns their results by workload name. A counted failure is a
// result; only a child that crashes or prints no result is an error.
func runAll(w io.Writer, o options) (map[string]result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	results := make(map[string]result)
	var spans []span
	for i, wl := range o.scale.workloads {
		args := []string{
			"-workload", wl.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-out", o.out,
			// The unit costs and sim.shard2_speedup do not depend on the
			// workload: measure them once.
			"-units=" + fmt.Sprint(o.units && i == 0),
		}
		if o.trace {
			args = append(args, "-trace", "1")
		}
		if o.tiny {
			args = append(args, "-tiny")
		}
		fmt.Fprintf(w, "\n=== %s ===\n", wl.name)
		res, err := runChild(w, self, args)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		results[wl.name] = res
		if o.trace {
			more, err := readSpans(filepath.Join(o.out, "trace.json"))
			if err != nil {
				return nil, err
			}
			spans = appendSpans(spans, more)
		}
	}
	if o.trace {
		if err := writeSpans(filepath.Join(o.out, "trace.json"), spans); err != nil {
			return nil, err
		}
	}
	// One row per metric, one column per workload; the unit costs were
	// measured once, in the first child.
	names := map[string]string{}
	for _, res := range results {
		for name, m := range res.Metrics {
			names[name] = m.Unit
		}
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	fmt.Fprintf(w, "\n=== summary ===\n%-30s %-6s", "", "")
	for _, wl := range o.scale.workloads {
		fmt.Fprintf(w, " %15s", wl.name)
	}
	fmt.Fprintf(w, "\n%-30s %-6s", "ops", "count")
	for _, wl := range o.scale.workloads {
		fmt.Fprintf(w, " %15d", results[wl.name].Attempted)
	}
	fmt.Fprintf(w, "\n%-30s %-6s", "failed", "count")
	for _, wl := range o.scale.workloads {
		fmt.Fprintf(w, " %15d", results[wl.name].Failed)
	}
	for _, name := range sorted {
		fmt.Fprintf(w, "\n%-30s %-6s", name, names[name])
		for _, wl := range o.scale.workloads {
			if m, ok := results[wl.name].Metrics[name]; ok {
				fmt.Fprintf(w, " %15.6g", m.Value)
			} else {
				fmt.Fprintf(w, " %15s", "")
			}
		}
	}
	fmt.Fprintln(w)
	return results, nil
}

// runChild runs one child to completion, copies its output through, and
// parses its last line.
func runChild(w io.Writer, self string, args []string) (result, error) {
	var out bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = io.MultiWriter(w, &out)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("child failed: %w", err)
	}
	var last string
	for sc := bufio.NewScanner(&out); sc.Scan(); {
		last = sc.Text()
	}
	var res result
	dec := json.NewDecoder(strings.NewReader(last))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil || res.Attempted < 1 || len(res.Metrics) == 0 {
		return result{}, fmt.Errorf("malformed child result %q: %v", last, err)
	}
	return res, nil
}

// runSelfcheck applies the acceptance test this benchmark is held to: two
// sets of runs of the same code must agree within each metric's bound.
func runSelfcheck(w io.Writer, o options) error {
	o.trace = false
	var runs [4]map[string]result
	for i := range runs {
		fmt.Fprintf(w, "\n##### selfcheck run %d of %d #####\n", i+1, len(runs))
		var err error
		if runs[i], err = runAll(w, o); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "\n=== selfcheck: set A = runs 1,3; set B = runs 2,4 ===\n")
	fmt.Fprintf(w, "%-16s %-12s %12s %12s %9s %7s\n", "workload", "metric", "median A", "median B", "distance", "bound")
	bad := 0
	for _, wl := range o.scale.workloads {
		for _, m := range endToEnd {
			at := func(i int) float64 { return runs[i][wl.name].Metrics[m.name].Value }
			a := median([]float64{at(0), at(2)})
			b := median([]float64{at(1), at(3)})
			dist := (b - a) / a
			if dist < 0 {
				dist = -dist
			}
			verdict := ""
			if dist > m.bound {
				verdict = "  EXCEEDS BOUND"
				bad++
			}
			fmt.Fprintf(w, "%-16s %-12s %12.4f %12.4f %8.2f%% %6.0f%%%s\n", wl.name, m.name, a, b, 100*dist, 100*m.bound, verdict)
		}
		for i := range runs {
			if r := runs[i][wl.name]; r.Failed > 0 {
				fmt.Fprintf(w, "%-16s run %d: %d of %d passes failed\n", wl.name, i+1, r.Failed, r.Attempted)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) outside their bound or with failed passes", bad)
	}
	return nil
}

package bench

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"reflect"
	"testing"

	"ityr"
	"ityr/internal/apps/taskbench"
)

// TestTaskbenchSuiteMatrix pins the shape of the matrix: every graph
// shape × task grain × scheduling policy produces exactly one cell, each
// with a live simulated time and nonzero wire traffic. A shape or policy
// added to the runtime without joining the gate shows up here.
func TestTaskbenchSuiteMatrix(t *testing.T) {
	rep, err := TaskbenchSuite(io.Discard, Smoke)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != Schema || rep.Suite != "taskbench" {
		t.Fatalf("schema/suite = %q/%q, want %q/taskbench", rep.Schema, rep.Suite, Schema)
	}
	if rep.Scale != Smoke.Name {
		t.Fatalf("scale = %q, want %q", rep.Scale, Smoke.Name)
	}
	want := len(taskbench.Shapes) * len(taskbenchGrains) * len(ityr.SchedPolicies)
	if len(rep.Rows) != want {
		t.Fatalf("got %d cells, want %d", len(rep.Rows), want)
	}
	for _, shape := range taskbench.Shapes {
		for _, g := range taskbenchGrains {
			for _, pol := range ityr.SchedPolicies {
				name := fmt.Sprintf("%s/%s/%s", shape, g.name, pol)
				m, ok := rep.Rows[name]
				if !ok {
					t.Errorf("matrix is missing cell %q", name)
					continue
				}
				if m["sim_ns"] <= 0 || m["rma_bytes"] == 0 {
					t.Errorf("%s: degenerate cell %+v", name, m)
				}
			}
		}
	}
}

// TestTaskbenchSuiteDeterministic is the contract perfgate's ±2% gate
// rests on: the whole matrix is bit-identical run-to-run, so any drift a
// CI compare reports is a code change, not noise.
func TestTaskbenchSuiteDeterministic(t *testing.T) {
	a, _ := TaskbenchSuite(io.Discard, Smoke)
	b, _ := TaskbenchSuite(io.Discard, Smoke)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("suite is not deterministic:\n  first:  %+v\n  second: %+v", a, b)
	}
}

// TestBaselinesFresh requires the checked-in smoke-scale baselines to be
// exactly what the current code writes, byte for byte (the simulator is
// deterministic and WriteJSON sorts its keys). That makes a CI gate
// failure reproducible locally: if this test fails, the baseline is stale
// — regenerate it with `make baseline-<suite>` and review the diff as part
// of the change. BENCH_faults.json and BENCH_scaling.json are full-scale
// and BENCH_figures.json quick-scale; `make gate-faults gate-scaling
// gate-figures` is their freshness check.
func TestBaselinesFresh(t *testing.T) {
	for name, suite := range map[string]func(io.Writer, Scale) (*Report, error){
		"perf": PerfSuite, "taskbench": TaskbenchSuite,
	} {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile("../../BENCH_" + name + ".json")
			if err != nil {
				t.Fatalf("checked-in baseline missing: %v", err)
			}
			cur, err := suite(io.Discard, Smoke)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := cur.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(got.Bytes(), want) {
				return
			}
			t.Errorf("BENCH_%s.json is stale — regenerate with `make baseline-%s`", name, name)
			base, err := ReadReport(bytes.NewReader(want))
			if err != nil {
				t.Fatal(err)
			}
			for row, cm := range cur.Rows {
				if bm := base.Rows[row]; !reflect.DeepEqual(bm, cm) {
					t.Errorf("%s: baseline %v != current %v", row, bm, cm)
				}
			}
			if len(base.Rows) != len(cur.Rows) {
				t.Errorf("baseline has %d rows, current suite %d", len(base.Rows), len(cur.Rows))
			}
		})
	}
}

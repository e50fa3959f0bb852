package bench

import (
	"strings"
	"testing"

	"ityr"
	"ityr/internal/fault"
	"ityr/internal/trace"
)

// faultCilksort is the verified Smoke cilksort under plan and a replication
// fraction.
func faultCilksort(plan *fault.Plan, replicate float64) (*ityr.Runtime, bool) {
	r := verifiedApps[0].Run(Smoke, faultConfig(Smoke, plan, replicate))
	return r.rt, r.Verified
}

// TestSDCNegativeControl pins the sharp edge of the injection model: with
// corruption armed and the defenses down, every app must come out of the
// run with real escaped corruptions AND a failed output verification —
// otherwise the injector is flipping bits nothing can observe and the
// detection numbers elsewhere are meaningless. The metrics document must
// carry every flip as injected and escaped, and the report rendered from it
// must flag the escapes and print the per-rank table.
func TestSDCNegativeControl(t *testing.T) {
	plan := fault.PlanSDC(11)
	for _, app := range verifiedApps {
		t.Run(app.Name, func(t *testing.T) {
			r := app.Run(Smoke, faultConfig(Smoke, &plan, 0))
			rt := r.rt
			if r.Verified {
				t.Errorf("%s verified despite unprotected corruption", app.Name)
			}
			fs := rt.Injector().Stats()
			if fs.TaskFlips == 0 {
				t.Fatalf("plan injected no task flips")
			}
			c := rt.MetricsSnapshot().Counters
			if got := c["sdc_injected_flips"]; got != fs.TaskFlips {
				t.Errorf("metrics sdc_injected_flips = %d, want the %d task flips", got, fs.TaskFlips)
			}
			escaped, ok := c["sdc_escaped"]
			if !ok {
				t.Fatalf("no SDC ledger for escape accounting")
			}
			if escaped == 0 {
				t.Errorf("injected %d flips but recorded no escapes", fs.TaskFlips)
			}
			if escaped != fs.TaskFlips {
				t.Errorf("escaped %d != injected %d: with replication off every flip must escape",
					escaped, fs.TaskFlips)
			}
			snap := rt.MetricsSnapshot()
			var b strings.Builder
			trace.Report(&b, app.Name, nil, trace.Meta{Ranks: rt.Config().Ranks, Metrics: &snap})
			for _, want := range []string{"UNDETECTED ESCAPE", "sdc per-rank corruption"} {
				if !strings.Contains(b.String(), want) {
					t.Errorf("report lacks %q:\n%s", want, b.String())
				}
			}
		})
	}
}

// TestSDCFullReplicationDetectsAll pins the acceptance criterion: at
// replication fraction 1.0 every injected task-result corruption is
// detected (zero escapes), recovery succeeds, and every app verifies its
// output.
func TestSDCFullReplicationDetectsAll(t *testing.T) {
	plan := fault.PlanSDC(11)
	for _, app := range verifiedApps {
		t.Run(app.Name, func(t *testing.T) {
			r := app.Run(Smoke, faultConfig(Smoke, &plan, 1.0))
			rt := r.rt
			if !r.Verified {
				t.Errorf("%s failed verification with full replication", app.Name)
			}
			fs := rt.Injector().Stats()
			c := rt.MetricsSnapshot().Counters
			if fs.TaskFlips == 0 {
				t.Fatalf("plan injected no task flips")
			}
			if c["sdc_escaped"] != 0 {
				t.Errorf("%d corruption(s) escaped full replication", c["sdc_escaped"])
			}
			if c["sdc_detected"] == 0 || c["sdc_detected"] < fs.TaskFlips {
				t.Errorf("detected %d < injected %d", c["sdc_detected"], fs.TaskFlips)
			}
			if c["sdc_recovered"] == 0 {
				t.Errorf("no protocols recorded as recovered")
			}
		})
	}
}

// TestSDCCombinedFlakyRecovery runs cilksort under the storm plan — 50%
// task corruption stacked on the flaky-RMA failure plan — with full
// replication: the replication protocol and the RMA retry machinery must
// compose, every corruption must be caught exactly once per strike, and
// the output must still verify.
func TestSDCCombinedFlakyRecovery(t *testing.T) {
	plan := fault.PlanSDCStorm(11)
	rt, verified := faultCilksort(&plan, 1.0)
	if !verified {
		t.Errorf("cilksort failed verification under sdc-storm with full replication")
	}
	c := rt.MetricsSnapshot().Counters
	cs := rt.Comm().Stats()
	if rt.Injector().Stats().Injected == 0 || cs.Retries == 0 {
		t.Errorf("storm plan did not engage the RMA failure machinery (injected=%d retries=%d)",
			rt.Injector().Stats().Injected, cs.Retries)
	}
	if c["sdc_detected"] == 0 || c["sdc_recovered"] == 0 {
		t.Errorf("storm plan detected=%d recovered=%d; want both > 0", c["sdc_detected"], c["sdc_recovered"])
	}
	if c["sdc_escaped"] != 0 {
		t.Errorf("%d corruption(s) escaped full replication", c["sdc_escaped"])
	}
}

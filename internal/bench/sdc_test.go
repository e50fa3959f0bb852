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
// detection numbers elsewhere are meaningless.
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

// TestSDCWireCRC pins the wire-corruption side: under the sdc-wire plan
// the payload checksum (armed with the defenses) must catch and retransmit
// every in-flight flip so the run verifies, while the same plan with the
// defenses down must land corrupt bytes in the output.
func TestSDCWireCRC(t *testing.T) {
	plan := fault.PlanSDCWire(11)
	// The smoke-scale run issues only ~90 bulk transfers (many rank-local
	// and exempt), so the canned 2% rate can draw zero flips; crank the
	// probability to make the hooks' engagement certain.
	plan.Corrupt.WireProb = 0.25

	rt, verified := faultCilksort(&plan, 0.0001) // arms cfg.SDC (and the checksum) with negligible replication
	ws := rt.Comm().SdcWire()
	if ws.Flips == 0 {
		t.Fatalf("wire plan injected no flips")
	}
	if !verified {
		t.Errorf("cilksort failed verification with the wire checksum armed")
	}
	if ws.Detected != ws.Flips || ws.Escapes != 0 {
		t.Errorf("wire checksum: flips=%d detected=%d escapes=%d; want all detected",
			ws.Flips, ws.Detected, ws.Escapes)
	}
	if ws.Retrans == 0 {
		t.Errorf("wire checksum detected flips but recorded no retransmissions")
	}

	rt, verified = faultCilksort(&plan, 0) // defenses down
	ws = rt.Comm().SdcWire()
	if ws.Flips == 0 || ws.Escapes != ws.Flips {
		t.Errorf("unprotected wire: flips=%d escapes=%d; want every flip to escape", ws.Flips, ws.Escapes)
	}
	if verified {
		t.Errorf("cilksort verified despite unprotected wire corruption")
	}
}

// TestSDCWireOnlyLedger: a run whose only corruption is on the wire, with
// the defenses down, reports it. The metrics document carries every wire
// flip as an injected flip and an escape, and the report flags the escapes
// and prints the per-rank table.
func TestSDCWireOnlyLedger(t *testing.T) {
	plan := fault.PlanSDCWire(11)
	plan.Corrupt.WireProb = 0.25 // the canned 2% can draw no flip at smoke scale (TestSDCWireCRC)
	rt, verified := faultCilksort(&plan, 0)
	if verified {
		t.Error("cilksort verified despite unprotected wire corruption")
	}
	flips := rt.Comm().SdcWire().Flips
	if flips == 0 {
		t.Fatal("wire plan injected no flips")
	}
	snap := rt.MetricsSnapshot()
	for _, key := range []string{"sdc_injected_flips", "sdc_wire_flips", "sdc_escaped"} {
		if got := snap.Counters[key]; got != flips {
			t.Errorf("metrics %s = %d, want the %d wire flips", key, got, flips)
		}
	}
	var b strings.Builder
	trace.Report(&b, "sdc-wire", nil, trace.Meta{Ranks: rt.Config().Ranks, Metrics: &snap})
	for _, want := range []string{"UNDETECTED ESCAPE", "sdc per-rank corruption"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, b.String())
		}
	}
}

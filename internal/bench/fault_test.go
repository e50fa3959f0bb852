package bench

import (
	"io"
	"testing"

	"ityr"
	"ityr/internal/fault"
)

// faultDigest is configDigest (the kernel-determinism digest: stats, prof
// breakdown, full trace stream, final clock) with a fault plan armed and
// victim blacklisting on.
func faultDigest(t *testing.T, plan *fault.Plan) string {
	t.Helper()
	cfg := runtimeConfig(Smoke.FixedRanks, Smoke.CoresPerNode, ityr.WriteBackLazy, 11)
	if plan != nil {
		cfg.Faults = plan
		cfg.Sched.VictimBlacklist = true
	}
	return configDigest(t, cfg, Smoke.CilksortN, Smoke.Cutoffs[0])
}

// TestFaultDeterminismGolden pins the tentpole's core guarantee: the same
// plan (same seed) yields a bit-identical run — every injected failure,
// retry backoff, latency spike, straggler window and blacklist decision
// replays exactly. Each canned plan is run twice and the two digests must
// match.
func TestFaultDeterminismGolden(t *testing.T) {
	plans := fault.CannedPlans(11)
	for i := range plans {
		a := faultDigest(t, &plans[i])
		b := faultDigest(t, &plans[i])
		t.Logf("%-16s %s", plans[i].Name, a)
		if a != b {
			t.Errorf("%s: run-to-run digest mismatch:\n  first:  %s\n  second: %s",
				plans[i].Name, a, b)
		}
	}
}

// TestEmptyPlanMatchesNoPlan pins the zero-overhead-when-off property at
// the observable level: arming an empty plan (injector present, nothing
// to inject) must not move a single virtual timestamp or event relative
// to a run with no injector at all. Victim blacklisting stays off in both
// runs — it is a scheduling feature that legitimately reroutes steals
// (healthy runs hit the 20µs steal timeout too), not injector overhead.
func TestEmptyPlanMatchesNoPlan(t *testing.T) {
	cfg := runtimeConfig(Smoke.FixedRanks, Smoke.CoresPerNode, ityr.WriteBackLazy, 11)
	none := configDigest(t, cfg, Smoke.CilksortN, Smoke.Cutoffs[0])
	cfg.Faults = &fault.Plan{Name: "empty", Seed: 11}
	empty := configDigest(t, cfg, Smoke.CilksortN, Smoke.Cutoffs[0])
	if none != empty {
		t.Errorf("empty plan perturbed the run:\n  no plan:    %s\n  empty plan: %s", none, empty)
	}
}

// TestFaultPlansAppsTerminate runs all three applications to completion
// under every canned plan with output verification — sortedness +
// checksum conservation for cilksort, host node count for UTS-Mem,
// bit-exact potentials for FMM.
func TestFaultPlansAppsTerminate(t *testing.T) {
	plans := fault.CannedPlans(11)
	for _, app := range faultApps {
		for i := range plans {
			t.Run(app.Name+"/"+plans[i].Name, func(t *testing.T) {
				_, rt, ok := app.Run(Smoke, &plans[i], 0)
				if !ok {
					t.Errorf("%s under %s: output verification failed", app.Name, plans[i].Name)
				}
				if inj := rt.Injector(); inj == nil {
					t.Errorf("injector not armed")
				}
			})
		}
	}
}

// TestFaultBenchSmoke exercises the whole `itybench faults` path and
// asserts the resilience machinery visibly engaged: the flaky-rma plan
// must inject failures and cause retries, and the straggler plan must
// slow the run down versus clean.
func TestFaultBenchSmoke(t *testing.T) {
	rep, err := FaultBench(io.Discard, Smoke)
	if err != nil {
		t.Error(err)
	}
	if rep.Schema != Schema || rep.Suite != "faults" {
		t.Fatalf("schema/suite = %q/%q", rep.Schema, rep.Suite)
	}
	wantRuns := len(faultApps) * (1 + len(fault.CannedPlans(11)) + len(SdcSweepFractions))
	if len(rep.Rows) != wantRuns {
		t.Fatalf("got %d runs, want %d", len(rep.Rows), wantRuns)
	}
	for key, r := range rep.Rows {
		if r["ok"] != 1 {
			t.Errorf("%s: verdict not OK (verified=%v escaped=%v)", key, r["verified"], r["sdc_escaped"])
		}
	}
	// The sweep's negative control must demonstrate real corruption, and
	// the protected rows must show the machinery engaging.
	for _, app := range faultApps {
		ctl := rep.Rows[app.Name+"/sdc-task/0.00"]
		if ctl["sdc_injected"] == 0 || ctl["sdc_escaped"] == 0 || ctl["verified"] != 0 {
			t.Errorf("%s sdc negative control: injected=%v escaped=%v verified=%v; want flips, escapes, and failed verification",
				app.Name, ctl["sdc_injected"], ctl["sdc_escaped"], ctl["verified"])
		}
		prot := rep.Rows[app.Name+"/sdc-task/0.50"]
		if prot["replica_tasks"] == 0 || prot["sdc_detected"] == 0 {
			t.Errorf("%s sdc at 50%% replication: replicas=%v detected=%v; want both > 0",
				app.Name, prot["replica_tasks"], prot["sdc_detected"])
		}
	}
	flaky := rep.Rows["cilksort/flaky-rma"]
	if flaky["injected_failures"] == 0 || flaky["rma_retries"] == 0 {
		t.Errorf("flaky-rma plan injected %v failures, %v retries; want both > 0",
			flaky["injected_failures"], flaky["rma_retries"])
	}
	if flaky["rma_retry_stall_ns"] == 0 {
		t.Errorf("flaky-rma retries reported zero stall time")
	}
	strag := rep.Rows["cilksort/straggler"]
	if strag["slowdown"] <= 1.0 {
		t.Errorf("straggler plan slowdown %.2fx; want > 1x", strag["slowdown"])
	}
	clean := rep.Rows["cilksort/clean"]
	if clean["injected_failures"] != 0 || clean["rma_retries"] != 0 || clean["blacklists"] != 0 {
		t.Errorf("clean run shows resilience activity: %+v", clean)
	}
}

package bench

import (
	"io"
	"testing"

	"ityr"
	"ityr/internal/fault"
)

// TestFaultPlansAppsTerminate runs all three applications to completion
// under every canned plan with output verification — sortedness +
// checksum conservation for cilksort, host node count for UTS-Mem,
// bit-exact potentials for FMM.
func TestFaultPlansAppsTerminate(t *testing.T) {
	plans := fault.CannedPlans(11)
	for _, app := range verifiedApps {
		for i := range plans {
			t.Run(app.Name+"/"+plans[i].Name, func(t *testing.T) {
				r := app.Run(Smoke, faultConfig(Smoke, &plans[i], 0))
				if !r.Verified {
					t.Errorf("%s under %s: output verification failed", app.Name, plans[i].Name)
				}
				if inj := r.rt.Injector(); inj == nil {
					t.Errorf("injector not armed")
				}
			})
		}
	}
}

// TestStragglerRunsBank: a run under fault.PlanStraggler banks its
// charges like any other. Rank 0 charges 1 µs at a time and rank 1, ten
// times slower, 100 ns, so their charges end at the same instants and an
// unbanked run hands the thread from one rank to the other at every
// charge; banked, each rank takes its whole bank at exit, in a few
// handoffs.
func TestStragglerRunsBank(t *testing.T) {
	plan := fault.PlanStraggler(faultSeed)
	rt := ityr.NewRuntime(ityr.Config{Ranks: 2, CoresPerNode: 2, Faults: &plan})
	const perRank = 50
	err := rt.Run(func(s *ityr.SPMD) {
		d := ityr.Time(1000)
		if s.Rank() == 1 {
			d = 100
		}
		for i := 0; i < perRank; i++ {
			s.Charge(d)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rt.Engine().Now(), ityr.Time(perRank*1000); got != want {
		t.Errorf("run ended at %d ns, want %d: the straggler's scale was not in force", got, want)
	}
	if h := rt.Engine().Stats().Handoffs; h >= 2*perRank {
		t.Errorf("%d handoffs for %d charges: the straggler run did not bank", h, 2*perRank)
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
	wantRuns := len(verifiedApps) * (1 + len(fault.CannedPlans(11)) + len(SdcSweepFractions))
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
	for _, app := range verifiedApps {
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

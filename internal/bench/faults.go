// Fault-tolerance benchmark: the Fig. 7 cilksort configuration re-run
// under the canned deterministic fault plans (internal/fault), with the
// output verified after every run. The paper's evaluation assumes a
// healthy Omni-Path fabric; this harness quantifies how the runtime's
// resilience machinery (RMA retry/timeout/backoff, steal-victim
// blacklisting, straggler-scaled processors) degrades under adverse
// conditions while still producing correct results.
package bench

import (
	"fmt"
	"io"

	"ityr"
	"ityr/internal/apps/cilksort"
	"ityr/internal/apps/fmm"
	"ityr/internal/fault"
	"ityr/internal/sim"
)

// faultSeed seeds both the runtime and the fault plans, matching the
// Fig. 7 runs so clean times are comparable.
const faultSeed = 11

// faultConfig is runtimeConfig plus an armed plan and, when replicate is
// positive, selective task replication. Victim blacklisting is enabled
// whenever a plan is armed — it is the scheduler-side half of the
// resilience story and off by default only to preserve the fault-free
// golden digest.
func faultConfig(sc Scale, plan *fault.Plan, replicate float64) ityr.Config {
	cfg := runtimeConfig(sc.FixedRanks, sc.CoresPerNode, ityr.WriteBackLazy, faultSeed)
	if plan != nil {
		cfg.Faults = plan
		cfg.Sched.VictimBlacklist = true
	}
	if replicate > 0 {
		cfg.SDC = &ityr.SDCConfig{Replicate: replicate}
	}
	return cfg
}

// verifiedRun is one application run with its output checked.
type verifiedRun struct {
	Time     sim.Time // the app's timed phase
	Verified bool
	Checksum uint64 // of the output; equal across every correct run of one input
	rt       *ityr.Runtime
}

// verifiedApps runs each application at a scale's Fig. 7 / small sizes
// under cfg with verification on: sortedness and checksum conservation for
// cilksort, built against traversed node count for UTS-Mem, potentials and
// accelerations bit-exact against the host evaluation for FMM.
var verifiedApps = []struct {
	Name string
	Run  func(sc Scale, cfg ityr.Config) verifiedRun
}{
	{"cilksort", func(sc Scale, cfg ityr.Config) verifiedRun {
		res, rt := runCilksort(cfg, cilksort.Params{N: sc.CilksortN, Cutoff: sc.SortCutoff,
			Seed: faultSeed, Dist: ityr.BlockCyclicDist, Verify: true})
		return verifiedRun{res.SortTime, res.Verified, uint64(res.Checksum), rt}
	}},
	{"utsmem", func(sc Scale, cfg ityr.Config) verifiedRun {
		res, rt := runUTS(cfg, sc.UTSSmall)
		return verifiedRun{res.TraverseTime, res.Verified, uint64(res.Counted), rt}
	}},
	{"fmm", func(sc Scale, cfg ityr.Config) verifiedRun {
		res, rt := runFMM(cfg, fmm.Params{N: sc.FMMSmallN, Theta: sc.FMMTheta, NCrit: 32,
			NSpawn: sc.FMMNSpawn, Seed: 21, Verify: true})
		return verifiedRun{res.EvalTime, res.Verified, res.Checksum, rt}
	}},
}

// faultRow assembles one report row from a finished run: the run under
// its plan against the same app without one, the resilience activity
// observed (injected failures, RMA retries, steal timeouts, victim
// blacklisting) and the silent-data-corruption ledger (flips injected in
// task results, caught by digest, recovered after strikes, escaped to the
// output; redundant executions performed).
//
// "ok" is the row's verdict: a run with undetected corruption escapes
// MUST fail verification (the escapes are real silent errors — a verified
// run despite escapes would mean the injector corrupted nothing
// observable), and a run without escapes must verify. The negative-control
// rows (corruption armed, replication off) are therefore ok precisely
// because they are unverified.
//
// Every counter is read from the run's metrics document, which owns the
// ledger: a key a run does not arm reads as 0.
func faultRow(replicate float64, r verifiedRun, clean sim.Time) Metrics {
	t, verified := r.Time, r.Verified
	c := r.rt.MetricsSnapshot().Counters
	count := func(key string) float64 { return float64(c[key]) }
	slowdown := 0.0
	if clean > 0 {
		slowdown = float64(t) / float64(clean)
	}
	return Metrics{
		"replicate":          replicate, // task-replication fraction (0 = off)
		"time_ns":            float64(t),
		"clean_time_ns":      float64(clean),
		"slowdown":           slowdown,
		"verified":           verdict(verified), // output checked, not just "terminated"
		"ok":                 verdict(verified == (c["sdc_escaped"] == 0)),
		"injected_failures":  count("fault_injected_failures"),
		"rma_retries":        count("rma_retries"),
		"rma_retry_stall_ns": count("rma_retry_stall_ns"),
		"steals":             count("uth_steals"),
		"failed_steals":      count("uth_failed_steals"),
		"steal_timeouts":     count("uth_steal_timeouts"),
		"blacklists":         count("uth_steal_blacklists"),
		"blacklist_skips":    count("uth_blacklist_skips"),
		"sdc_injected":       count("sdc_injected_flips"),
		"sdc_detected":       count("sdc_detected"),
		"sdc_recovered":      count("sdc_recovered"),
		"sdc_escaped":        count("sdc_escaped"),
		"replica_tasks":      count("replica_tasks"),
	}
}

// SdcSweepFractions is the replication-fraction axis of the
// overhead-vs-coverage sweep: 0 is the negative control (corruption armed,
// defenses off — the output must come out wrong), the rest trade replica
// overhead against escape probability.
var SdcSweepFractions = []float64{0, 0.05, 0.10, 0.25, 0.50}

// FaultBench runs every app clean, under each canned fault plan, and then
// through the silent-data-corruption sweep (the sdc-task plan crossed with
// every SdcSweepFractions replication fraction), printing a table to w and
// returning the report: one row per run, named app/plan (app/plan/fraction
// in the sweep). Every row carries the ok verdict; a failed row is a
// harness bug, surfaced in the table, the report and the returned error
// rather than silently dropped.
func FaultBench(w io.Writer, sc Scale) (*Report, error) {
	rep := newReport("faults", sc)
	rep.Config["seed"] = faultSeed
	rep.Config["ranks"] = sc.FixedRanks
	rep.Config["cores_per_node"] = sc.CoresPerNode
	plans := fault.CannedPlans(faultSeed)
	sdcPlan := fault.PlanSDC(faultSeed)
	fmt.Fprintf(w, "\n== Fault plans: cilksort/utsmem/fmm on %d ranks (%d/node), seed %d ==\n",
		sc.FixedRanks, sc.CoresPerNode, faultSeed)
	fmt.Fprintf(w, "%-10s %-16s %5s %12s %9s %9s %8s %7s %7s %7s  %s\n",
		"app", "plan", "repl", "time (ms)", "slowdown", "injected", "flips", "detect", "escape", "replica", "verdict")
	bad := 0
	for _, app := range verifiedApps {
		var cleanT sim.Time
		run := func(plan *fault.Plan, frac float64, sweep bool) {
			name, key := "clean", app.Name+"/clean"
			if plan != nil {
				name, key = plan.Name, app.Name+"/"+plan.Name
			}
			if sweep {
				key = fmt.Sprintf("%s/%.2f", key, frac)
			}
			r := app.Run(sc, faultConfig(sc, plan, frac))
			t, ok := r.Time, r.Verified
			if plan == nil {
				cleanT = t
			}
			row := faultRow(frac, r, cleanT)
			rep.Rows[key] = row
			mark := "ok"
			switch {
			case row["ok"] == 0:
				mark = "FAILED"
				bad++
			case !ok:
				mark = "corrupt" // expected: escapes with defenses down
			}
			fmt.Fprintf(w, "%-10s %-16s %5.2f %12.3f %8.2fx %9.0f %7.0f %7.0f %7.0f %7.0f  %s\n",
				app.Name, name, frac, ms(t), row["slowdown"], row["injected_failures"],
				row["sdc_injected"], row["sdc_detected"], row["sdc_escaped"], row["replica_tasks"], mark)
		}
		run(nil, 0, false)
		for i := range plans {
			run(&plans[i], 0, false)
		}
		for _, frac := range SdcSweepFractions {
			run(&sdcPlan, frac, true)
		}
	}
	if bad > 0 {
		return rep, fmt.Errorf("%d run(s) failed the fault-report verdict", bad)
	}
	return rep, nil
}

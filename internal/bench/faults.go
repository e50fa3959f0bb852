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
	"ityr/internal/apps/uts"
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

// FaultCilksortRun runs the Fig. 7 cilksort configuration under plan
// (nil = clean) and verifies the result: the array must be sorted and its
// checksum conserved. Returns the sort time, the runtime for counter
// access, and the verification verdict.
func FaultCilksortRun(sc Scale, plan *fault.Plan, replicate float64) (sim.Time, *ityr.Runtime, bool) {
	rt := ityr.NewRuntime(faultConfig(sc, plan, replicate))
	n, cutoff := sc.CilksortN, sc.SortCutoff
	var elapsed sim.Time
	var before, after int64
	sorted := false
	err := rt.Run(func(s *ityr.SPMD) {
		var a, b ityr.GSpan[cilksort.Elem]
		if s.Rank() == 0 {
			a = ityr.AllocArraySPMD[cilksort.Elem](s, n, ityr.BlockCyclicDist)
			b = ityr.AllocArraySPMD[cilksort.Elem](s, n, ityr.BlockCyclicDist)
		}
		s.Barrier()
		s.RootExec(func(c *ityr.Ctx) {
			cilksort.Generate(c, a, faultSeed)
			before = cilksort.Checksum(c, a)
		})
		t0 := s.Now()
		s.RootExec(func(c *ityr.Ctx) {
			cilksort.Sort(c, a, b, cutoff)
		})
		if s.Rank() == 0 {
			elapsed = s.Now() - t0
		}
		s.RootExec(func(c *ityr.Ctx) {
			sorted = cilksort.IsSorted(c, a)
			after = cilksort.Checksum(c, a)
		})
	})
	if err != nil {
		panic(err)
	}
	return elapsed, rt, sorted && before == after
}

// FaultUTSRun traverses the scale's small tree under plan and verifies
// the traversal count against the host-side count.
func FaultUTSRun(sc Scale, plan *fault.Plan, replicate float64) (sim.Time, *ityr.Runtime, bool) {
	rt := ityr.NewRuntime(faultConfig(sc, plan, replicate))
	tree := sc.UTSSmall
	var elapsed sim.Time
	var nodes, want int64
	err := rt.Run(func(s *ityr.SPMD) {
		var root ityr.GPtr[uts.Node]
		s.RootExec(func(c *ityr.Ctx) {
			root, want = uts.Build(c, tree)
		})
		t0 := s.Now()
		s.RootExec(func(c *ityr.Ctx) {
			nodes = uts.Traverse(c, root)
		})
		if s.Rank() == 0 {
			elapsed = s.Now() - t0
		}
	})
	if err != nil {
		panic(err)
	}
	return elapsed, rt, nodes == want && nodes > 0
}

// FaultFMMRun evaluates the scale's small FMM instance under plan and
// verifies the simulated potentials bit-exactly against the host
// evaluation of the same tree — fault injection perturbs timing, never
// arithmetic, so exact equality must hold.
func FaultFMMRun(sc Scale, plan *fault.Plan, replicate float64) (sim.Time, *ityr.Runtime, bool) {
	p := fmm.Params{N: sc.FMMSmallN, Theta: sc.FMMTheta, NCrit: 32, NSpawn: sc.FMMNSpawn, Seed: 21}
	rt := ityr.NewRuntime(faultConfig(sc, plan, replicate))
	var elapsed sim.Time
	var got []fmm.Body
	err := rt.Run(func(s *ityr.SPMD) {
		var pr fmm.Problem
		if s.Rank() == 0 {
			pr = fmm.Setup(s, p)
		}
		s.Barrier()
		t0 := s.Now()
		s.RootExec(func(c *ityr.Ctx) {
			pr.Evaluate(c)
		})
		if s.Rank() == 0 {
			elapsed = s.Now() - t0
			b, gerr := ityr.GetSlice(s, pr.Bodies)
			if gerr != nil {
				panic(gerr)
			}
			got = b
		}
	})
	if err != nil {
		panic(err)
	}
	p = p.WithDefaults()
	ref := fmm.GenBodiesDist(p.N, p.Seed, p.Dist)
	cells := fmm.BuildTree(ref, p.NCrit)
	fmm.EvaluateHost(cells, ref, p.Theta)
	ok := len(got) == len(ref)
	for i := 0; ok && i < len(got); i++ {
		if got[i].P != ref[i].P || got[i].AX != ref[i].AX ||
			got[i].AY != ref[i].AY || got[i].AZ != ref[i].AZ {
			ok = false
		}
	}
	return elapsed, rt, ok
}

// faultApps maps app names to their verified runners.
var faultApps = []struct {
	Name string
	Run  func(Scale, *fault.Plan, float64) (sim.Time, *ityr.Runtime, bool)
}{
	{"cilksort", FaultCilksortRun},
	{"utsmem", FaultUTSRun},
	{"fmm", FaultFMMRun},
}

// faultRow assembles one report row from a finished run: the run under
// its plan against the same app without one, the resilience activity
// observed (injected failures, RMA retries, steal timeouts, victim
// blacklisting) and the silent-data-corruption ledger (flips injected on
// the wire and in task results, caught by digest or checksum, recovered
// after strikes, escaped to the output; redundant executions performed).
//
// "ok" is the row's verdict: a run with undetected corruption escapes
// MUST fail verification (the escapes are real silent errors — a verified
// run despite escapes would mean the injector corrupted nothing
// observable), and a run without escapes must verify. The negative-control
// rows (corruption armed, replication off) are therefore ok precisely
// because they are unverified.
func faultRow(replicate float64, t, clean sim.Time, rt *ityr.Runtime, verified bool) Metrics {
	cs := rt.Comm().Stats()
	ss := rt.Sched().Stats
	ws := rt.Comm().SdcWire()
	detected, recovered, escaped := ws.Detected, ws.Retrans, ws.Escapes
	var injected, flips, replicas uint64
	if inj := rt.Injector(); inj != nil {
		fs := inj.Stats()
		injected = fs.Injected
		flips = fs.WireFlips + fs.TaskFlips
	}
	if p := rt.Protector(); p != nil {
		st := p.Stats
		detected += st.Detected
		recovered += st.Recovered
		escaped += st.Escaped
		replicas = st.Replicas
	}
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
		"ok":                 verdict(verified == (escaped == 0)),
		"injected_failures":  float64(injected),
		"rma_retries":        float64(cs.Retries),
		"rma_retry_stall_ns": float64(cs.RetryNs),
		"steals":             float64(ss.Steals),
		"failed_steals":      float64(ss.FailedSteals),
		"steal_timeouts":     float64(ss.StealTimeouts),
		"blacklists":         float64(ss.Blacklists),
		"blacklist_skips":    float64(ss.BlacklistSkips),
		"sdc_injected":       float64(flips),
		"sdc_detected":       float64(detected),
		"sdc_recovered":      float64(recovered),
		"sdc_escaped":        float64(escaped),
		"replica_tasks":      float64(replicas),
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
	for _, app := range faultApps {
		var cleanT sim.Time
		run := func(plan *fault.Plan, frac float64, sweep bool) {
			name, key := "clean", app.Name+"/clean"
			if plan != nil {
				name, key = plan.Name, app.Name+"/"+plan.Name
			}
			if sweep {
				key = fmt.Sprintf("%s/%.2f", key, frac)
			}
			t, rt, ok := app.Run(sc, plan, frac)
			if plan == nil {
				cleanT = t
			}
			row := faultRow(frac, t, cleanT, rt, ok)
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

package bench

import (
	"fmt"
	"io"

	"ityr"
	"ityr/internal/apps/taskbench"
	"ityr/internal/sim"
)

// The taskbench suite is the workload-matrix counterpart of the perf
// suite: instead of three hand-picked apps, it sweeps the Task Bench
// dependency-graph generator over graph shape × task grain × scheduling
// policy, and gates every cell's simulated time and RMA traffic. A
// scheduler or cache change that helps stencils but hurts irregular
// graphs — or helps child-first but regresses help-first — shows up as a
// per-cell finding rather than averaging away.

// taskbenchGrains names the two task-grain columns of the matrix.
var taskbenchGrains = []struct {
	name  string
	grain func(Scale) sim.Time
}{
	{"fine", func(sc Scale) sim.Time { return sc.TBFineGrain }},
	{"coarse", func(sc Scale) sim.Time { return sc.TBCoarseGrain }},
}

// TaskbenchSuite runs the shape × grain × scheduler matrix at sc and
// returns the report. Every cell is one taskbench.Run on the perf-suite
// machine geometry; row names are shape/grain/policy. The per-cell checksum
// is verified to be policy-invariant before any number is reported.
func TaskbenchSuite(w io.Writer, sc Scale) (*Report, error) {
	rep := newReport("taskbench", sc)
	fmt.Fprintf(w, "\n== Task Bench matrix (%s scale, %d ranks, W=%d S=%d edge=%dB) ==\n",
		sc.Name, sc.FixedRanks, sc.TBWidth, sc.TBSteps, sc.TBEdgeBytes)
	fmt.Fprintf(w, "%-28s %14s %12s %14s %8s\n", "cell", "sim time (ms)", "round trips", "rma bytes", "steals")
	for si, shape := range taskbench.Shapes {
		for _, g := range taskbenchGrains {
			// The checksum is a pure function of the graph; if a policy
			// disagrees, its schedule broke the program — fail loudly
			// rather than gating garbage numbers.
			var checksum uint64
			for pi, pol := range ityr.SchedPolicies {
				p := taskbench.Params{
					Shape:     shape,
					Width:     sc.TBWidth,
					Steps:     sc.TBSteps,
					GrainNs:   g.grain(sc),
					EdgeBytes: sc.TBEdgeBytes,
					Seed:      int64(100 + si),
				}
				cfg := perfConfig(sc, ityr.WriteBackLazy, int64(300+si))
				cfg.Sched.Policy = pol
				res, err := taskbench.Run(cfg, p)
				if err != nil {
					panic(fmt.Sprintf("taskbench %v/%s/%v: %v", shape, g.name, pol, err))
				}
				if pi == 0 {
					checksum = res.Checksum
				} else if res.Checksum != checksum {
					panic(fmt.Sprintf("taskbench %v/%s: %v checksum %016x != %016x — scheduler broke the program",
						shape, g.name, pol, res.Checksum, checksum))
				}
				name := fmt.Sprintf("%s/%s/%s", shape, g.name, pol)
				m := perfMetrics(res.Elapsed, res.Stats)
				rep.Rows[name] = m
				fmt.Fprintf(w, "%-28s %14.3f %12.0f %14.0f %8d\n", name, ms(res.Elapsed), m["round_trips"], m["rma_bytes"], res.Steals)
			}
		}
	}
	return rep, nil
}

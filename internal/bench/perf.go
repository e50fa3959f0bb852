package bench

import (
	"fmt"
	"io"

	"ityr"
	"ityr/internal/apps/fmm"
	"ityr/internal/apps/halo"
	"ityr/internal/rma"
	"ityr/internal/sim"
)

// The perf suite measures what the deterministic simulator makes exactly
// reproducible: simulated time and RMA traffic for a fixed set of
// experiments. Because every number is bit-identical run-to-run on every
// host, a CI job can gate on the recorded baseline with a tiny tolerance
// (internal/tools/perfgate) instead of rerunning noisy wall-clock
// benchmarks: a regression in communication volume or simulated time is a
// code change, not a noisy neighbor.

// perfMetrics are one experiment's gated numbers: the simulated elapsed
// time of the measured phase in virtual nanoseconds, the RMA operations
// (gets + puts + atomics) of the whole run — the number the cache-batching
// layer exists to shrink — and the total payload moved (get + put bytes).
func perfMetrics(t sim.Time, st rma.Stats) Metrics {
	return Metrics{
		"sim_ns":      float64(t),
		"round_trips": float64(st.GetOps + st.PutOps + st.AtomicOps),
		"rma_bytes":   float64(st.GetBytes + st.PutBytes),
	}
}

// perfConfig is the runtime configuration the cached perf-suite
// experiments use: the standard machine with the block geometry scaled
// down to 4 KiB blocks / 512 B sub-blocks. Smoke-scale working sets span
// only a couple of the paper's 64 KiB blocks, which hides the per-block
// communication structure this gate exists to watch; shrinking the block
// keeps blocks-per-working-set near the full-scale ratio, so coalescing
// exercises the same code paths it does at full scale.
func perfConfig(sc Scale, pol ityr.Policy, seed int64) ityr.Config {
	cfg := runtimeConfig(sc.FixedRanks, sc.CoresPerNode, pol, seed)
	cfg.Pgas.BlockSize = 4 << 10
	cfg.Pgas.SubBlockSize = 512
	return cfg
}

// PerfSuite runs the gated experiments at sc and returns the report. Each
// experiment is one representative configuration of an app the paper
// evaluates (§6), chosen for coverage of the access patterns that stress
// the cache differently: cilksort (streaming merges over a block
// distribution, the dirty runs coalescing merges), fmm (irregular
// tree walks whose releases stress the write-back path), uts (pointer
// chasing — batching should stay out of the way), halo (raw SPMD RMA that
// bypasses the cache entirely — a control whose numbers batching must not
// disturb).
func PerfSuite(w io.Writer, sc Scale) (*Report, error) {
	rep := newReport("perf", sc)
	fmt.Fprintf(w, "\n== Perf suite (%s scale, %d ranks) ==\n", sc.Name, sc.FixedRanks)
	fmt.Fprintf(w, "%-10s %14s %12s %14s\n", "experiment", "sim time (ms)", "round trips", "rma bytes")
	add := func(name string, t sim.Time, st rma.Stats) {
		m := perfMetrics(t, st)
		rep.Rows[name] = m
		fmt.Fprintf(w, "%-10s %14.3f %12.0f %14.0f\n", name, ms(t), m["round_trips"], m["rma_bytes"])
	}

	t, rt := ablCilksort(perfConfig(sc, ityr.WriteBackLazy, 11), sc.CilksortN, sc.SortCutoff, ityr.BlockDist)
	add("cilksort", t, rt.Comm().Stats())

	rf, rt := runFMM(perfConfig(sc, ityr.WriteBackLazy, 29),
		fmm.Params{N: sc.FMMSmallN, Theta: sc.FMMTheta, NCrit: 32, NSpawn: sc.FMMNSpawn, Seed: 21})
	add("fmm", rf.EvalTime, rt.Comm().Stats())

	ru, rt := runUTS(perfConfig(sc, ityr.WriteBackLazy, 17), sc.UTSBig)
	add("uts", ru.TraverseTime, rt.Comm().Stats())

	res, err := halo.Run(halo.Config{
		Ranks:        sc.FixedRanks,
		CoresPerNode: sc.CoresPerNode,
		CellsPerRank: 256,
		Steps:        20,
	})
	if err != nil {
		return nil, fmt.Errorf("perf suite: halo: %w", err)
	}
	add("halo", res.Elapsed, res.Stats)

	return rep, nil
}

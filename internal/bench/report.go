package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"
)

// Schema identifies the one report format every suite writes and
// internal/tools/perfgate reads.
const Schema = "itoyori-bench/v1"

// Metrics are one row's named numbers. Verdicts are 0/1.
type Metrics map[string]float64

// Report is the machine-readable result of one suite run: a table of
// named rows × named metrics, plus what perfgate needs to know to compare
// two of them like for like. Every metric is a deterministic simulated
// quantity — bit-identical on every host, so a gate can hold it to a
// checked-in BENCH_<suite>.json — unless its name is listed in Host.
type Report struct {
	Schema string `json:"schema"`
	Suite  string `json:"suite"`
	Scale  string `json:"scale"`
	// Config records the knobs the run was taken under; reports taken
	// under different knobs are not comparable.
	Config map[string]any `json:"config"`
	// Host names the metrics and config keys that depend on the host the
	// run was taken on (wall clock, allocation, CPU count): reported,
	// never gated.
	Host []string           `json:"host,omitempty"`
	Rows map[string]Metrics `json:"rows"`
}

// newReport starts suite's report at sc under the current knobs — the
// settings every experiment runtime is built from (runtimeConfig). A suite
// with more to record adds its own Config entries.
func newReport(suite string, sc Scale) *Report {
	return &Report{Schema: Schema, Suite: suite, Scale: sc.Name, Rows: map[string]Metrics{},
		Config: map[string]any{
			"coalesce": cacheCoalesce,
			"prefetch": cachePrefetch,
			"sched":    schedPolicy.String(),
			"racks":    racksNodes,
		}}
}

// WriteJSON serializes the report as indented JSON. Map keys are written
// sorted, so equal reports are equal byte for byte.
func (rep *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// ReadReport parses a report written by WriteJSON. Files of the four
// formats that preceded itoyori-bench/v1 are rejected, not converted.
func ReadReport(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("bench: parsing report: %w", err)
	}
	if rep.Schema != Schema {
		return nil, fmt.Errorf("bench: report schema %q, want %q — regenerate the file with `make baseline-<suite>`", rep.Schema, Schema)
	}
	return &rep, nil
}

// verdict renders a pass/fail as the 0/1 a Metrics row carries.
func verdict(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}

// Suite is one entry of the dispatch table behind `itybench <suite>`.
type Suite struct {
	Name string
	Help string
	// Run prints the suite's human-readable table to w and returns its
	// report; suites that only print return a nil report. A non-nil error
	// alongside a report means the run completed but failed its own
	// verdict (the report is still worth writing).
	Run func(w io.Writer, sc Scale) (*Report, error)
	// Reports says Run returns a report, so that a caller asked to write
	// one can refuse a print-only suite before running it.
	Reports bool
}

// figures are the paper-evaluation suites, in the order `all` runs them.
// Each prints its rows and, Table 1 apart, how long the host took.
var figures = []Suite{
	{Name: "table1", Help: "the simulated environment (Table 1)", Run: printOnly(Table1)},
	{Name: "fig7", Help: "Figure 7: Cilksort time vs task cutoff, four cache policies", Run: timed("fig7", func(w io.Writer, sc Scale) { Fig7(w, sc) })},
	{Name: "fig8", Help: "Figure 8: Cilksort strong scaling", Run: timed("fig8", func(w io.Writer, sc Scale) { Fig8(w, sc) })},
	{Name: "fig9", Help: "Figure 9: Cilksort Write-Back (Lazy) time breakdown", Run: timed("fig9", func(w io.Writer, sc Scale) { Fig9(w, sc) })},
	{Name: "fig10", Help: "Figure 10: UTS-Mem traversal throughput", Run: timed("fig10", func(w io.Writer, sc Scale) { Fig10(w, sc) })},
	{Name: "fig11", Help: "Figure 11: ExaFMM strong scaling", Run: timed("fig11", func(w io.Writer, sc Scale) { Fig11(w, sc) })},
	{Name: "table2", Help: "Table 2: ExaFMM vs the static MPI baseline", Run: timed("table2", func(w io.Writer, sc Scale) { Table2(w, sc) })},
	{Name: "abl", Help: "the design-choice ablations", Run: timed("ablations", Ablations)},
}

// Suites is everything `itybench <suite>` can run.
var Suites = slices.Concat(figures, []Suite{
	{Name: "all", Help: "table1, every figure, table2 and the ablations (the default; full_results.txt)", Run: runAll},
	{Name: "perf", Help: "deterministic perf suite: simulated time, RMA round trips and bytes per app (gated: BENCH_perf.json)", Run: PerfSuite, Reports: true},
	{Name: "taskbench", Help: "Task Bench matrix: graph shape × task grain × scheduling policy (gated: BENCH_taskbench.json)", Run: TaskbenchSuite, Reports: true},
	{Name: "faults", Help: "the apps under the canned fault plans and the SDC replication sweep, outputs verified (gated: BENCH_faults.json)", Run: FaultBench, Reports: true},
	{Name: "scaling", Help: "rank-count scaling sweep (halo + cilksort, 64 ranks up to the scale's cap) and the fleet (gated: BENCH_scaling.json)", Run: ScalingSuite, Reports: true},
	{Name: "fleet", Help: "independent simulations run concurrently across host cores, digests cross-checked", Run: FleetSuite, Reports: true},
	{Name: "metrics", Help: "the canonical cilksort run's itoyori-metrics/v1 snapshot", Run: func(w io.Writer, sc Scale) (*Report, error) {
		return nil, MetricsRun(w, sc)
	}},
})

func printOnly(fn func(io.Writer, Scale)) func(io.Writer, Scale) (*Report, error) {
	return func(w io.Writer, sc Scale) (*Report, error) {
		fn(w, sc)
		return nil, nil
	}
}

// timed is printOnly plus the host-time footer under label.
func timed(label string, fn func(io.Writer, Scale)) func(io.Writer, Scale) (*Report, error) {
	return printOnly(func(w io.Writer, sc Scale) {
		t0 := time.Now()
		fn(w, sc)
		fmt.Fprintf(w, "   [%s: %.1fs host time]\n", label, time.Since(t0).Seconds())
	})
}

// runAll runs the figures in order, printing Fig. 9 from Fig. 8's runs
// instead of repeating them.
func runAll(w io.Writer, sc Scale) (*Report, error) {
	var lazy []Fig8Run
	for _, s := range figures {
		switch s.Name {
		case "fig8":
			s.Run = timed("fig8", func(w io.Writer, sc Scale) { _, lazy = Fig8(w, sc) })
		case "fig9":
			s.Run = timed("fig9", func(w io.Writer, _ Scale) { fig9From(w, lazy) })
		}
		s.Run(w, sc) // print-only: nothing to return
	}
	return nil, nil
}

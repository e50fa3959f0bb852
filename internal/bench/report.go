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
	// Config records the suite-specific settings the run was taken under;
	// reports taken under different settings are not comparable.
	Config map[string]any `json:"config"`
	// Host names the metrics and config keys that depend on the host the
	// run was taken on (wall clock, allocation, CPU count): reported,
	// never gated.
	Host []string           `json:"host,omitempty"`
	Rows map[string]Metrics `json:"rows"`
}

// newReport starts suite's report at sc. A suite with settings of its own
// to record adds them as Config entries.
func newReport(suite string, sc Scale) *Report {
	return &Report{Schema: Schema, Suite: suite, Scale: sc.Name, Rows: map[string]Metrics{}, Config: map[string]any{}}
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

// row returns the named row, measuring it first if the report does not hold
// it yet. A figure is therefore one function: given a fresh report it
// measures and prints, given a report read back from a file it only prints —
// which is how EXPERIMENTS.md's blocks are re-rendered from
// BENCH_figures.json, and how Fig. 9 is printed from Fig. 8's runs.
func (rep *Report) row(name string, measure func() Metrics) Metrics {
	m, ok := rep.Rows[name]
	if !ok {
		m = measure()
		rep.Rows[name] = m
	}
	return m
}

// at is the metric of the row named by path's elements joined with "/" (zero
// if the report has no such row): how the claim functions read a report.
func (rep *Report) at(metric string, path ...any) float64 {
	return rep.Rows[rowName(path...)][metric]
}

func rowName(path ...any) string {
	name := fmt.Sprint(path[0])
	for _, p := range path[1:] {
		name += "/" + fmt.Sprint(p)
	}
	return name
}

// ms is the row's simulated time in milliseconds.
func (m Metrics) ms() float64 { return m["sim_ns"] / 1e6 }

// Suite is one entry of the dispatch table behind `itybench <suite>`.
type Suite struct {
	Name string
	Help string
	// Run prints the suite's human-readable table to w and returns its
	// report. A non-nil error alongside a report means the run completed
	// but failed its own verdict (the report is still worth writing).
	Run func(w io.Writer, sc Scale) (*Report, error)
}

// Suites is everything `itybench <suite>` can run: each figure on its own;
// `figures`, the reproduction — all of them into one report, the union of
// theirs, Fig. 9 read off Fig. 8's rows instead of repeating its runs; and
// the other suites whose reports `make check` gates.
var Suites = append(eachFigure(),
	Suite{Name: "figures", Help: "table1, every figure, table2 and the ablations with the paper's claims as 0/1 verdicts (the default; gated at quick: BENCH_figures.json)", Run: figuresSuite("figures", figures...)},
	Suite{Name: "perf", Help: "deterministic perf suite: simulated time, RMA round trips and bytes per app (gated: BENCH_perf.json)", Run: PerfSuite},
	Suite{Name: "taskbench", Help: "Task Bench matrix: graph shape × task grain × scheduling policy (gated: BENCH_taskbench.json)", Run: TaskbenchSuite},
	Suite{Name: "faults", Help: "the apps under the canned fault plans and the SDC replication sweep, outputs verified (gated: BENCH_faults.json)", Run: FaultBench},
	Suite{Name: "scaling", Help: "rank-count scaling sweep (halo + cilksort, 64 ranks up to the scale's cap) and the fleet (gated: BENCH_scaling.json)", Run: ScalingSuite},
	Suite{Name: "fleet", Help: "independent simulations run concurrently across host cores, digests cross-checked", Run: FleetSuite},
)

// figure is one table or figure of the paper's evaluation (§6), or the
// ablation set: table measures whatever rows rep lacks and prints the
// table from rep (Report.row); claims derives, from rep's rows alone, the
// 0/1 verdicts of what the paper claims about the figure.
type figure struct {
	name, help string
	table      func(w io.Writer, rep *Report, sc Scale)
	claims     func(rep *Report, sc Scale) Metrics
}

// figures are the paper-evaluation suites, in the order `figures` runs them.
var figures = []figure{
	{name: "table1", help: "the simulated environment (Table 1)", table: table1},
	{name: "fig7", help: "Figure 7: Cilksort time vs task cutoff, four cache policies", table: fig7, claims: fig7Claims},
	{name: "fig8", help: "Figure 8: Cilksort strong scaling", table: fig8, claims: fig8Claims},
	{name: "fig9", help: "Figure 9: Cilksort Write-Back (Lazy) time breakdown (Fig. 8's lazy rows)", table: fig9, claims: fig9Claims},
	{name: "fig10", help: "Figure 10: UTS-Mem traversal throughput", table: fig10, claims: fig10Claims},
	{name: "fig11", help: "Figure 11: ExaFMM strong scaling", table: fig11, claims: fig11Claims},
	{name: "table2", help: "Table 2: ExaFMM vs the static MPI baseline", table: table2, claims: table2Claims},
	{name: "abl", help: "the design-choice ablations", table: abl, claims: ablClaims},
}

func eachFigure() (suites []Suite) {
	for _, f := range figures {
		suites = append(suites, Suite{Name: f.name, Help: f.help, Run: figuresSuite(f.name, f)})
	}
	return suites
}

// run adds the figure to rep — its rows, its verdicts as the row
// claim/<figure>, and how long the host took as host/<figure> (never gated,
// never printed: stdout is a pure function of the gated rows) — and prints
// it.
func (f figure) run(w io.Writer, rep *Report, sc Scale) {
	t0 := time.Now()
	f.table(w, rep, sc)
	rep.Rows["host/"+f.name] = Metrics{"host_s": time.Since(t0).Seconds()}
	if f.claims != nil {
		rep.Rows["claim/"+f.name] = f.claims(rep, sc)
	}
	f.printClaims(w, rep)
}

// printClaims prints the figure's verdicts, one line each, sorted by name.
func (f figure) printClaims(w io.Writer, rep *Report) {
	claims := rep.Rows["claim/"+f.name]
	names := make([]string, 0, len(claims))
	for name := range claims {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Fprintf(w, "   claim/%s %s = %.0f\n", f.name, name, claims[name])
	}
}

// figuresSuite is the suite named name that runs figs into one report.
func figuresSuite(name string, figs ...figure) func(io.Writer, Scale) (*Report, error) {
	return func(w io.Writer, sc Scale) (*Report, error) {
		rep := newReport(name, sc)
		rep.Host = []string{"host_s"}
		for _, f := range figs {
			f.run(w, rep, sc)
		}
		return rep, nil
	}
}

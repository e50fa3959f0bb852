package bench

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// checkedInFigures reads BENCH_figures.json, the reproduction's gated
// report, and the scale it was taken at. Nothing below simulates anything.
func checkedInFigures(t *testing.T) (*Report, Scale) {
	f, err := os.Open("../../BENCH_figures.json")
	if err != nil {
		t.Fatalf("checked-in baseline missing: %v", err)
	}
	defer f.Close()
	rep, err := ReadReport(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range Scales {
		if sc.Name == rep.Scale {
			return rep, sc
		}
	}
	t.Fatalf("BENCH_figures.json is at unknown scale %q", rep.Scale)
	return nil, Scale{}
}

// TestExperimentsQuoteTheReport holds EXPERIMENTS.md to BENCH_figures.json:
// between <!-- begin:<figure> --> and <!-- end:<figure> --> sits, byte for
// byte, what the figure's printer renders from the checked-in report (table
// and claim lines), and the claims the file shows are exactly the claims the
// report holds — so a number or a verdict cannot be edited by hand, go stale
// after `make baseline-figures`, or be dropped. A stale block's replacement
// is printed.
func TestExperimentsQuoteTheReport(t *testing.T) {
	rep, sc := checkedInFigures(t)
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	inReport := map[string]bool{}
	for _, f := range figures {
		var want bytes.Buffer
		fmt.Fprintf(&want, "<!-- begin:%s -->\n```text", f.name)
		f.table(&want, rep, sc)
		f.printClaims(&want, rep)
		fmt.Fprintf(&want, "```\n<!-- end:%s -->", f.name)
		if !bytes.Contains(doc, want.Bytes()) {
			t.Errorf("EXPERIMENTS.md does not quote BENCH_figures.json for %s; the block it must hold is on stdout", f.name)
			fmt.Printf("%s\n", want.Bytes()) // not through t: unindented, to paste
		}
		for claim := range rep.Rows["claim/"+f.name] {
			inReport["claim/"+f.name+" "+claim] = true
		}
	}
	inDoc := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^ +(claim/\S+ \S+) = [01]$`).FindAllSubmatch(doc, -1) {
		inDoc[string(m[1])] = true
	}
	if !reflect.DeepEqual(inDoc, inReport) {
		t.Errorf("claims shown in EXPERIMENTS.md and held in BENCH_figures.json differ:\n  file:   %v\n  report: %v", inDoc, inReport)
	}
}

// TestClaimsAreFunctionsOfTheReport re-evaluates every claim from the
// checked-in file alone and requires the verdicts stored in it.
func TestClaimsAreFunctionsOfTheReport(t *testing.T) {
	rep, sc := checkedInFigures(t)
	for _, f := range figures {
		if f.claims == nil {
			continue
		}
		if got, want := f.claims(rep, sc), rep.Rows["claim/"+f.name]; !reflect.DeepEqual(got, want) {
			t.Errorf("claim/%s re-evaluated from BENCH_figures.json: %v, stored: %v", f.name, got, want)
		}
	}
}

// rows is a report's rows under the doctor's knife.
type rows map[string]Metrics

func (r rows) set(row, metric string, v float64)    { r[row][metric] = v }
func (r rows) scale(row, metric string, by float64) { r[row][metric] *= by }
func (r rows) swap(a, b, metric string)             { r[a][metric], r[b][metric] = r[b][metric], r[a][metric] }

// doctorings has, for every claim, one edit of the quick-scale report's
// rows that must flip it: swap two policies' times, move a minimum, flatten
// a curve. Row names are the quick scale's.
var doctorings = map[string]func(r rows){
	"claim/fig7 policy_order_at_finest_cutoff":    func(r rows) { r.swap("fig7/Write-Through/256", "fig7/Write-Back/256", "sim_ns") },
	"claim/fig7 nocache_slowest_at_finest_cutoff": func(r rows) { r.swap("fig7/No Cache/256", "fig7/Write-Back (Lazy)/256", "sim_ns") },
	"claim/fig7 u_shape_min_at_16k":               func(r rows) { r.scale("fig7/Write-Back (Lazy)/16384", "sim_ns", 0.5) },
	"claim/fig7 lazy_most_robust":                 func(r rows) { r.scale("fig7/Write-Back (Lazy)/256", "sim_ns", 2) },

	"claim/fig8 larger_input_scales_better":        func(r rows) { r.set("fig8/1048576/No Cache/32", "speedup", 1) },
	"claim/fig8 larger_input_speeds_up_with_ranks": func(r rows) { r.scale("fig8/1048576/Write-Back (Lazy)/32", "sim_ns", 10) },
	"claim/fig8 cache_gain_larger_on_larger_input": func(r rows) { r.scale("fig8/1048576/Write-Back (Lazy)/32", "sim_ns", 2) },

	"claim/fig9 serial_time_constant":       func(r rows) { r["fig8/262144/Write-Back (Lazy)/16"]["merge_ns"]++ },
	"claim/fig9 attribution_within_elapsed": func(r rows) { r.scale("fig8/262144/Write-Back (Lazy)/16", "get_ns", 1000) },
	"claim/fig9 others_grows_faster_on_small_input": func(r rows) {
		r.scale("fig8/262144/Write-Back (Lazy)/4", "quicksort_ns", 0) // the small input starts out idle
	},

	"claim/fig10 cache_wins_every_cell": func(r rows) {
		r.swap("fig10/T1S'/No Cache/8", "fig10/T1S'/Write-Back (Lazy)/8", "nodes_per_sec")
	},
	"claim/fig10 cache_gain_grows_with_ranks": func(r rows) {
		r.set("fig10/T1L'/Write-Back (Lazy)/32", "nodes_per_sec", 1.01*r["fig10/T1L'/No Cache/32"]["nodes_per_sec"])
	},
	"claim/fig10 nocache_flattens": func(r rows) {
		r.set("fig10/T1L'/Write-Back (Lazy)/32", "nodes_per_sec", r["fig10/T1L'/Write-Back (Lazy)/16"]["nodes_per_sec"])
	},

	"claim/fig11 cache_beats_nocache":  func(r rows) { r.swap("fig11/3000/No Cache/16", "fig11/3000/Write-Through/16", "sim_ns") },
	"claim/fig11 wb_no_slower_than_wt": func(r rows) { r.swap("fig11/10000/Write-Back/32", "fig11/10000/Write-Through/32", "sim_ns") },
	"claim/fig11 lazy_does_not_help": func(r rows) {
		r.set("fig11/10000/Write-Back (Lazy)/8", "sim_ns", r["fig11/10000/Write-Back/8"]["sim_ns"])
	},
	"claim/fig11 bigger_input_scales_better": func(r rows) { r.set("fig11/3000/Write-Back/32", "speedup", 100) },
	"claim/fig11 closes_on_mpi_with_scale":   func(r rows) { r.scale("fig11/10000/MPI/4", "sim_ns", 0.5) },

	"claim/table2 zero_on_one_node": func(r rows) { r.set("table2/1", "idleness", 0.01) },
	"claim/table2 idleness_grows":   func(r rows) { r.set("table2/8", "idleness", 0) },

	"claim/abl subblock_trades_ops_for_bytes":        func(r rows) { r.swap("abl/subblock/256", "abl/subblock/1024", "fetch_ops") },
	"claim/abl smaller_cache_evicts_more":            func(r rows) { r.set("abl/cache/16384", "evictions", 1) },
	"claim/abl distribution_is_a_wash":               func(r rows) { r.scale("abl/dist/block", "sim_ns", 1.1) },
	"claim/abl lazy_release_faster_at_fine_grain":    func(r rows) { r.swap("abl/lazyrelease/Write-Back", "abl/lazyrelease/Write-Back (Lazy)", "sim_ns") },
	"claim/abl larger_theta_is_cheaper":              func(r rows) { r.swap("abl/theta/0.3", "abl/theta/0.5", "sim_ns") },
	"claim/abl locality_steals_stay_on_node_and_win": func(r rows) { r.set("abl/victim/locality-aware", "intra_steals", 0) },
	"claim/abl clustered_bodies_idle_mpi_more":       func(r rows) { r.set("abl/fmmdist/plummer", "mpi_idleness", 0) },
}

// TestClaimsCanFail is what makes a checked-in 1 mean something: every claim
// in BENCH_figures.json has a doctoring, and evaluated on the doctored copy
// of the report its verdict is the opposite of the checked-in one — 1 → 0
// for the claims that hold, 0 → 1 for the ones recorded as not holding.
func TestClaimsCanFail(t *testing.T) {
	rep, sc := checkedInFigures(t)
	for _, f := range figures {
		for claim, verdict := range rep.Rows["claim/"+f.name] {
			name := "claim/" + f.name + " " + claim
			doctor, ok := doctorings[name]
			if !ok {
				t.Errorf("%s has no doctoring: add the edit of the report that flips it", name)
				continue
			}
			doctored := &Report{Scale: rep.Scale, Rows: map[string]Metrics{}}
			for row, m := range rep.Rows {
				if !strings.HasPrefix(row, "claim/") {
					doctored.Rows[row] = maps.Clone(m)
				}
			}
			doctor(doctored.Rows)
			if got := f.claims(doctored, sc)[claim]; got != 1-verdict {
				t.Errorf("%s = %v on the doctored report, want %v: the claim cannot fail this way", name, got, 1-verdict)
			}
		}
	}
}

package bench

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"

	"ityr"
	"ityr/internal/fault"
	"ityr/internal/memblock"
	"ityr/internal/sim"
)

// smokeFigures is the `figures` suite's report at Smoke and what it printed,
// run once for every test that selects from it.
var smokeFigures = sync.OnceValues(func() (*Report, string) {
	var sb strings.Builder
	rep, err := figuresSuite("figures", figures...)(&sb, Smoke)
	if err != nil {
		panic(err)
	}
	return rep, sb.String()
})

// checkClaims requires the named verdicts of the smoke report's
// claim/<figure> row to hold — the way checkGolden selects golden rows. The
// paper's other claims about the figure need the quick scale's sweep to
// mean anything; BENCH_figures.json gates those.
func checkClaims(t *testing.T, figure string, claims ...string) {
	rep, _ := smokeFigures()
	row := rep.Rows["claim/"+figure]
	for _, c := range claims {
		if v, ok := row[c]; !ok || v != 1 {
			t.Errorf("claim/%s %s = %v (present: %v), want 1", figure, c, v, ok)
		}
	}
}

func TestFig7SmokeShape(t *testing.T) {
	checkClaims(t, "fig7", "nocache_slowest_at_finest_cutoff")
	rep, out := smokeFigures()
	rows := 0
	for name := range rep.Rows {
		if strings.HasPrefix(name, "fig7/") {
			rows++
		}
	}
	if rows != len(ityr.Policies)*len(Smoke.Cutoffs) {
		t.Errorf("rows = %d", rows)
	}
	if !strings.Contains(out, "Figure 7") {
		t.Error("missing header")
	}
}

func TestFig8SmokeShape(t *testing.T) {
	checkClaims(t, "fig8", "larger_input_speeds_up_with_ranks", "larger_input_scales_better")
}

func TestFig9SmokeBreakdownSums(t *testing.T) {
	checkClaims(t, "fig9", "attribution_within_elapsed", "serial_time_constant")
}

func TestFig10SmokeShape(t *testing.T) { checkClaims(t, "fig10", "cache_wins_every_cell") }

func TestFig11SmokeShape(t *testing.T) {
	checkClaims(t, "fig11", "cache_beats_nocache", "wb_no_slower_than_wt")
}

func TestTable2SmokeShape(t *testing.T) {
	checkClaims(t, "table2", "zero_on_one_node", "idleness_grows")
	rep, _ := smokeFigures()
	for _, nodes := range Smoke.MPINodes {
		if v := rep.at("idleness", "table2", nodes); v < 0 || v >= 1 {
			t.Errorf("idleness on %d nodes out of range: %f", nodes, v)
		}
	}
}

func TestTable1Prints(t *testing.T) {
	if _, out := smokeFigures(); !strings.Contains(out, "Tofu") {
		t.Error("environment table incomplete")
	}
}

// TestEverySuiteReports walks the dispatch table: every suite returns its
// report — `itybench -o` needs no per-suite case — and one that records host
// time lists it under Host, so no gate ever holds a wall clock.
func TestEverySuiteReports(t *testing.T) {
	for _, s := range Suites {
		rep, err := s.Run(io.Discard, Smoke)
		if err != nil || rep == nil || rep.Suite != s.Name || len(rep.Rows) == 0 {
			t.Errorf("%s: report %+v, error %v", s.Name, rep, err)
			continue
		}
		for row, m := range rep.Rows {
			if _, ok := m["host_s"]; ok != strings.HasPrefix(row, "host/") || ok && !slices.Contains(rep.Host, "host_s") {
				t.Errorf("%s: row %s: host_s out of place (host list %v)", s.Name, row, rep.Host)
			}
		}
	}
}

// TestAppsVerifiedAcrossPoliciesAndSchedulers is the app-level slice of the
// differential matrix: every application, output verified, under every
// cache policy × scheduling policy × fault plan {none, armed but empty,
// latency jitter only, straggler}, and under two more victim seeds
// (Config.Seed; the inputs' seeds stay fixed). The straggler plan runs with
// victim blacklisting armed, as the faults suite arms it, so every
// scheduler meets a slowed rank and the blacklist that routes steals
// around it. The output must depend on none of them, so each of an app's
// 72 cells verifies and all agree on one output checksum.
// cilksort and utsmem run every cell with the checkout-discipline
// validator on and must end with no violation. fmm runs unvalidated: its
// P2P tasks still write field-disjoint halves of one body record that
// other tasks read (ROADMAP 1(b)).
// The two validated apps also run the flaky-RMA column (flakyCells): every
// cache × scheduling policy under fault.PlanFlakyRMA at eight victim seeds,
// 96 cells each. Retried ops stretch write-backs, which is what exposed a
// child reported done before its Release #2 had reached home
// (TestChildDoneOnlyAfterRelease).
// Every cell runs on a poisoned cache-block pool (poisonPool), so the
// output also cannot depend on what an unfetched cache byte holds.
// poisonBlocks is how many poisoned blocks each matrix cell starts with:
// four times the most any cell touches across all its ranks (utsmem, 17).
const poisonBlocks = 64

// poisonPool tops the process-wide cache-block pool with n blocks of
// blockSize bytes filled with 0xA5, through the production path: a cache
// table takes them from the pool (or allocates), and Release hands them
// back. The pool is last in, first out, so the next n blocks any cache of
// that block size acquires are poisoned.
func poisonPool(n, blockSize int) {
	tb := memblock.NewTable(n, blockSize, false)
	for id := 0; id < n; id++ {
		b, _, _ := tb.Acquire(int64(id))
		for i := range b.Data {
			b.Data[i] = 0xA5
		}
	}
	tb.Release()
}

// appMatrix checks one application's cells at one scale: each verifies,
// ends with no checkout-discipline violation when validated, and computes
// the output checksum of the first cell.
type appMatrix struct {
	t        *testing.T
	name     string
	run      func(Scale, ityr.Config) verifiedRun
	sc       Scale
	first    string
	checksum uint64
}

func (m *appMatrix) check(cfg ityr.Config, knobs string) {
	t := m.t
	cell := fmt.Sprintf("%s/%s/%v/%v/%s seed=%d", m.name, m.sc.Name, cfg.Pgas.Policy, cfg.Sched.Policy, knobs, cfg.Seed)
	cfg.Pgas.Validate = m.name != "fmm"
	poisonPool(poisonBlocks, cfg.Pgas.BlockSize)
	r := m.run(m.sc, cfg)
	if !r.Verified {
		t.Errorf("%s: output verification failed", cell)
	}
	if v := r.rt.Space().Violations(); len(v) > 0 {
		t.Errorf("%s: %d checkout-discipline violations, the first %+v", cell, len(v), v[0])
	}
	if m.first == "" {
		m.first, m.checksum = cell, r.Checksum
	} else if r.Checksum != m.checksum {
		t.Errorf("%s: output checksum %016x, but %s has %016x", cell, r.Checksum, m.first, m.checksum)
	}
}

// flakySeed is the k-th victim seed of the flaky-RMA column, faultSeed +
// k·7919 for k = 0…7: the eight offsets EXPERIMENTS.md's seed-verdict rule
// runs the figures at.
func flakySeed(k int) int64 { return faultSeed + int64(k)*7919 }

// flakyCells runs base under fault.PlanFlakyRMA at the eight victim seeds.
func (m *appMatrix) flakyCells(base ityr.Config) {
	flaky := fault.PlanFlakyRMA(faultSeed)
	for k := range 8 {
		cfg := base
		cfg.Faults = &flaky
		cfg.Seed = flakySeed(k)
		m.check(cfg, "faults=flaky-rma")
	}
}

func TestAppsVerifiedAcrossPoliciesAndSchedulers(t *testing.T) {
	straggler := fault.PlanStraggler(faultSeed)
	plans := []*fault.Plan{
		nil,
		{Name: "empty", Seed: faultSeed},
		{Name: "jitter", Seed: faultSeed, Links: []fault.LinkWindow{{Src: -1, Dst: -1, Jitter: 2 * sim.Microsecond}}},
		&straggler,
	}
	for _, app := range verifiedApps {
		m := &appMatrix{t: t, name: app.Name, run: app.Run, sc: Smoke}
		for _, pol := range ityr.Policies {
			for _, sched := range ityr.SchedPolicies {
				base := runtimeConfig(Smoke.FixedRanks, Smoke.CoresPerNode, pol, faultSeed)
				base.Sched.Policy = sched
				for _, plan := range plans {
					cfg := base
					cfg.Faults = plan
					cfg.Sched.VictimBlacklist = plan == &straggler
					name := "none"
					if plan != nil {
						name = plan.Name
					}
					m.check(cfg, "faults="+name)
				}
				for _, seed := range []int64{faultSeed + 1, faultSeed + 2} {
					cfg := base
					cfg.Seed = seed
					m.check(cfg, "default knobs")
				}
				if app.Name != "fmm" {
					m.flakyCells(base)
				}
			}
		}
	}
}

// wideMatrix arms TestFlakyMatrixQuick, the wide sweep `make fuzz-matrix`
// runs: it takes minutes, where the rest of the package takes seconds.
var wideMatrix = flag.Bool("wide-matrix", false, "run the flaky-RMA victim-seed matrix at the quick scale (make fuzz-matrix)")

// TestFlakyMatrixQuick is the flaky-RMA column of the app matrix at the
// quick scale: cilksort and utsmem, validated, under every cache ×
// scheduling policy at the eight victim seeds (192 cells). It is the one
// sweep that reaches the paper's default configuration (Write-Back (Lazy),
// child-first) with a write-back long enough to race a Join.
func TestFlakyMatrixQuick(t *testing.T) {
	if !*wideMatrix {
		t.Skip("the wide sweep: make fuzz-matrix (-wide-matrix)")
	}
	for _, app := range verifiedApps {
		if app.Name == "fmm" {
			continue
		}
		m := &appMatrix{t: t, name: app.Name, run: app.Run, sc: Quick}
		for _, pol := range ityr.Policies {
			for _, sched := range ityr.SchedPolicies {
				base := runtimeConfig(Quick.FixedRanks, Quick.CoresPerNode, pol, faultSeed)
				base.Sched.Policy = sched
				m.flakyCells(base)
			}
		}
	}
}

// TestChildDoneOnlyAfterRelease pins the smallest matrix cell that caught a
// child marked done before its Release #2: a stolen child's write-back
// sleeps (per-Put overhead, the flush, fault-retry waits), and a parent
// reaching Join in that window took the fast path, acquired, and read
// bytes not yet sent home — an [unreleased-write] for the validator.
func TestChildDoneOnlyAfterRelease(t *testing.T) {
	cfg := runtimeConfig(Smoke.FixedRanks, Smoke.CoresPerNode, ityr.WriteBack, faultSeed)
	flaky := fault.PlanFlakyRMA(faultSeed)
	cfg.Faults = &flaky
	cfg.Seed = flakySeed(3)
	m := &appMatrix{t: t, name: "cilksort", run: verifiedApps[0].Run, sc: Smoke}
	m.check(cfg, "faults=flaky-rma")
}

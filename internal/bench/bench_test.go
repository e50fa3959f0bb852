package bench

import (
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
// cache policy × scheduling policy × write-back coalescing on/off × fault
// plan {none, armed but empty, latency jitter only}, and with coalescing on
// under two more victim seeds (Config.Seed; the inputs' seeds stay fixed).
// The output must depend on none of them, so each of an app's 96 cells
// verifies and all agree on one output checksum.
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

func TestAppsVerifiedAcrossPoliciesAndSchedulers(t *testing.T) {
	plans := []*fault.Plan{
		nil,
		{Name: "empty", Seed: faultSeed},
		{Name: "jitter", Seed: faultSeed, Links: []fault.LinkWindow{{Src: -1, Dst: -1, Jitter: 2 * sim.Microsecond}}},
	}
	for _, app := range verifiedApps {
		var first string
		var checksum uint64
		check := func(cfg ityr.Config, knobs string) {
			cell := fmt.Sprintf("%s/%v/%v/%s seed=%d", app.Name, cfg.Pgas.Policy, cfg.Sched.Policy, knobs, cfg.Seed)
			poisonPool(poisonBlocks, cfg.Pgas.BlockSize)
			r := app.Run(Smoke, cfg)
			if !r.Verified {
				t.Errorf("%s: output verification failed", cell)
			}
			if first == "" {
				first, checksum = cell, r.Checksum
			} else if r.Checksum != checksum {
				t.Errorf("%s: output checksum %016x, but %s has %016x", cell, r.Checksum, first, checksum)
			}
		}
		for _, pol := range ityr.Policies {
			for _, sched := range ityr.SchedPolicies {
				base := runtimeConfig(Smoke.FixedRanks, Smoke.CoresPerNode, pol, faultSeed)
				base.Sched.Policy = sched
				for _, coalesce := range []bool{true, false} {
					for _, plan := range plans {
						cfg := base
						cfg.Pgas.CoalesceWriteBack = coalesce
						cfg.Faults = plan
						name := "none"
						if plan != nil {
							name = plan.Name
						}
						check(cfg, fmt.Sprintf("coalesce=%v/faults=%s", coalesce, name))
					}
				}
				for _, seed := range []int64{faultSeed + 1, faultSeed + 2} {
					cfg := base
					cfg.Seed = seed
					check(cfg, "default knobs")
				}
			}
		}
	}
}

package bench

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"ityr"
)

func TestFig7SmokeShape(t *testing.T) {
	var sb strings.Builder
	rows := Fig7(&sb, Smoke)
	if len(rows) != len(ityr.Policies)*len(Smoke.Cutoffs) {
		t.Fatalf("rows = %d", len(rows))
	}
	// At the smallest cutoff, No Cache must be the slowest policy.
	var noCache, lazy Row
	for _, r := range rows {
		if r.Param != Smoke.Cutoffs[0] {
			continue
		}
		switch r.Policy {
		case ityr.NoCache.String():
			noCache = r
		case ityr.WriteBackLazy.String():
			lazy = r
		}
	}
	if noCache.Time <= lazy.Time {
		t.Errorf("fine grain: no-cache (%d) should exceed lazy (%d)", noCache.Time, lazy.Time)
	}
	if !strings.Contains(sb.String(), "Figure 7") {
		t.Error("missing header")
	}
}

func TestFig8SmokeShape(t *testing.T) {
	rows, _ := Fig8(io.Discard, Smoke)
	// More ranks must not be drastically slower for the big input with
	// caching.
	byRanks := map[int]Row{}
	for _, r := range rows {
		if r.Policy == ityr.WriteBackLazy.String() && r.Param == Smoke.CilksortBigN {
			byRanks[r.Ranks] = r
		}
	}
	lo, hi := byRanks[Smoke.Ranks[0]], byRanks[Smoke.Ranks[len(Smoke.Ranks)-1]]
	if hi.Time > lo.Time*2 {
		t.Errorf("scaling regressed: %d ranks %d ns vs %d ranks %d ns", lo.Ranks, lo.Time, hi.Ranks, hi.Time)
	}
}

func TestFig9SmokeBreakdownSums(t *testing.T) {
	rows := Fig9(io.Discard, Smoke)
	// Fractions for each (workload, ranks) group must sum to ~1.
	sums := map[string]float64{}
	for _, r := range rows {
		key := r.Workload + "/" + string(rune(r.Ranks))
		sums[key] += r.Value
	}
	for k, s := range sums {
		if s < 0.99 || s > 1.01 {
			t.Errorf("breakdown %q sums to %f", k, s)
		}
	}
}

func TestFig10SmokeShape(t *testing.T) {
	rows := Fig10(io.Discard, Smoke)
	// Caching must beat no-cache at the top rank count on the big tree.
	var nc, cz Row
	top := Smoke.Ranks[len(Smoke.Ranks)-1]
	for _, r := range rows {
		if r.Workload == Smoke.UTSBig.Name && r.Ranks == top {
			if r.Policy == ityr.NoCache.String() {
				nc = r
			} else {
				cz = r
			}
		}
	}
	if cz.Value <= nc.Value {
		t.Errorf("cached throughput %.0f <= no-cache %.0f", cz.Value, nc.Value)
	}
}

func TestFig11SmokeShape(t *testing.T) {
	rows := Fig11(io.Discard, Smoke)
	// Caching (lazy) must beat no-cache on the big input at top ranks.
	var nc, cz Row
	top := Smoke.Ranks[len(Smoke.Ranks)-1]
	for _, r := range rows {
		if r.Workload == "fmm-1200" && r.Ranks == top {
			switch r.Policy {
			case ityr.NoCache.String():
				nc = r
			case ityr.WriteBackLazy.String():
				cz = r
			}
		}
	}
	if nc.Time == 0 || cz.Time == 0 {
		t.Fatal("missing rows")
	}
	if cz.Time >= nc.Time {
		t.Errorf("cached FMM (%d) not faster than no-cache (%d)", cz.Time, nc.Time)
	}
}

func TestTable2SmokeShape(t *testing.T) {
	rows := Table2(io.Discard, Smoke)
	if rows[0].Value != 0 {
		t.Errorf("1-node idleness = %f", rows[0].Value)
	}
	last := rows[len(rows)-1]
	if last.Value < 0 || last.Value >= 1 {
		t.Errorf("idleness out of range: %f", last.Value)
	}
}

func TestTable1Prints(t *testing.T) {
	var sb strings.Builder
	Table1(&sb, Smoke)
	if !strings.Contains(sb.String(), "Tofu") {
		t.Error("environment table incomplete")
	}
}

// TestAppsVerifiedAcrossPoliciesAndSchedulers is the app-level slice of the
// differential matrix: every application, output verified, under every
// cache policy × scheduling policy. The output must not depend on either,
// so each cell verifies and all twelve cells of an app agree on one output
// checksum.
func TestAppsVerifiedAcrossPoliciesAndSchedulers(t *testing.T) {
	for _, app := range verifiedApps {
		var first string
		var checksum uint64
		for _, pol := range ityr.Policies {
			for _, sched := range ityr.SchedPolicies {
				cell := fmt.Sprintf("%s/%v/%v", app.Name, pol, sched)
				cfg := runtimeConfig(Smoke.FixedRanks, Smoke.CoresPerNode, pol, faultSeed)
				cfg.Sched.Policy = sched
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
		}
	}
}

package fmm

import (
	"fmt"
	"math"
	"testing"

	"ityr"
)

func cfg(ranks int, pol ityr.Policy) ityr.Config {
	return ityr.Config{
		Ranks:        ranks,
		CoresPerNode: 4,
		Pgas:         ityr.PgasConfig{BlockSize: 8 << 10, SubBlockSize: 1 << 10, CacheSize: 4 << 20, Policy: pol},
		Seed:         23,
	}
}

// runSim evaluates the FMM in the simulator (Run, output verified against
// the host evaluation) and returns the resulting bodies plus the virtual
// time of the evaluation phase.
func runSim(t *testing.T, ranks int, pol ityr.Policy, p Params) ([]Body, ityr.Time) {
	t.Helper()
	p.Verify = true
	res, err := Run(ityr.NewRuntime(cfg(ranks, pol)), p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Errorf("%d ranks, %v: bodies differ from EvaluateHost's", ranks, pol)
	}
	return res.Bodies, res.EvalTime
}

func TestParallelMatchesHost(t *testing.T) {
	p := Params{N: 1500, Theta: 0.35, NCrit: 32, NSpawn: 64, Seed: 5}
	// Host reference on the same tree-ordered bodies.
	hostBodies := GenBodies(p.N, p.Seed)
	cells := BuildTree(hostBodies, p.NCrit)
	EvaluateHost(cells, hostBodies, p.Theta)

	for _, ranks := range []int{1, 8} {
		ranks := ranks
		t.Run(fmt.Sprintf("%dr", ranks), func(t *testing.T) {
			got, _ := runSim(t, ranks, ityr.WriteBackLazy, p)
			if len(got) != len(hostBodies) {
				t.Fatalf("got %d bodies", len(got))
			}
			for i := range got {
				if rel := math.Abs(got[i].P-hostBodies[i].P) / (math.Abs(hostBodies[i].P) + 1e-300); rel > 1e-12 {
					t.Fatalf("body %d potential %g vs host %g", i, got[i].P, hostBodies[i].P)
				}
			}
		})
	}
}

func TestAllPoliciesAgree(t *testing.T) {
	p := Params{N: 800, Theta: 0.4, NCrit: 16, NSpawn: 32, Seed: 9}
	var ref []Body
	for i, pol := range ityr.Policies {
		got, _ := runSim(t, 4, pol, p)
		if i == 0 {
			ref = got
			continue
		}
		for j := range got {
			if got[j].P != ref[j].P || got[j].AX != ref[j].AX {
				t.Fatalf("policy %v body %d differs: %g vs %g", pol, j, got[j].P, ref[j].P)
			}
		}
	}
}

func TestSimAccuracyVsDirect(t *testing.T) {
	p := Params{N: 1200, Theta: 0.2, NCrit: 32, NSpawn: 64, Seed: 3}
	got, _ := runSim(t, 8, ityr.WriteBackLazy, p)
	// Direct reference on the tree-ordered bodies (same order as got).
	bodies := GenBodies(p.N, p.Seed)
	BuildTree(bodies, p.NCrit)
	ref := DirectHost(bodies)
	perr := PotentialError(got, ref)
	t.Logf("simulated FMM: potential err %.2e vs direct", perr)
	if perr > 1e-4 {
		t.Fatalf("θ=0.2 potential error %.2e too large", perr)
	}
}

func TestScalingImprovesTime(t *testing.T) {
	p := Params{N: 4000, Theta: 0.4, NCrit: 32, NSpawn: 128, Seed: 7}
	_, t1 := runSim(t, 1, ityr.WriteBackLazy, p)
	_, t16 := runSim(t, 16, ityr.WriteBackLazy, p)
	speedup := float64(t1) / float64(t16)
	t.Logf("16-rank speedup: %.2fx (t1=%.2fms t16=%.2fms)", speedup, float64(t1)/1e6, float64(t16)/1e6)
	if speedup < 3 {
		t.Errorf("16-rank FMM speedup only %.2fx", speedup)
	}
}

func TestCachingHelpsFMM(t *testing.T) {
	p := Params{N: 3000, Theta: 0.4, NCrit: 32, NSpawn: 128, Seed: 11}
	_, noCache := runSim(t, 8, ityr.NoCache, p)
	_, cached := runSim(t, 8, ityr.WriteBackLazy, p)
	t.Logf("FMM: no-cache %.2fms vs cached %.2fms (%.1fx)",
		float64(noCache)/1e6, float64(cached)/1e6, float64(noCache)/float64(cached))
	if cached >= noCache {
		t.Errorf("cached FMM (%d) not faster than no-cache (%d)", cached, noCache)
	}
}

func TestCountKernelsConsistent(t *testing.T) {
	bodies := GenBodies(2000, 13)
	cells := BuildTree(bodies, 32)
	k := CountKernels(cells, 0.35)
	if k.P2MBody != 2000 || k.L2PBody != 2000 {
		t.Errorf("P2M/L2P body counts %d/%d, want 2000", k.P2MBody, k.L2PBody)
	}
	if k.P2PPairs == 0 || k.M2L == 0 {
		t.Error("no near/far interactions counted")
	}
	if k.SerialTime() <= 0 {
		t.Error("non-positive serial time")
	}
	// Tighter θ (more accurate) must increase direct work.
	k2 := CountKernels(cells, 0.2)
	if k2.P2PPairs <= k.P2PPairs {
		t.Errorf("θ=0.2 P2P pairs %d not greater than θ=0.35's %d", k2.P2PPairs, k.P2PPairs)
	}
}

package fmmmpi

import (
	"testing"

	"ityr"
	"ityr/internal/apps/fmm"
)

var testParams = fmm.Params{N: 5000, Theta: 0.35, NCrit: 32, Seed: 7}

func TestSingleNodeHasNoIdleness(t *testing.T) {
	r := Run(testParams, 1, 8, ityr.DefaultNet(8))
	if r.Idleness != 0 {
		t.Fatalf("idleness on 1 node = %f, want 0", r.Idleness)
	}
	if r.CommTime != 0 {
		t.Fatalf("comm on 1 node = %d, want 0", r.CommTime)
	}
}

func TestIdlenessGrowsWithNodes(t *testing.T) {
	net := ityr.DefaultNet(8)
	var prev float64 = -1
	for _, nodes := range []int{1, 2, 4, 8, 16} {
		r := Run(testParams, nodes, 8, net)
		t.Logf("nodes=%2d idleness=%.3f elapsed=%.2fms", nodes, r.Idleness, float64(r.Elapsed)/1e6)
		if r.Idleness < 0 || r.Idleness >= 1 {
			t.Fatalf("idleness %f out of range", r.Idleness)
		}
		if nodes >= 4 && r.Idleness < prev-0.05 {
			t.Errorf("idleness shrank markedly from %f to %f at %d nodes", prev, r.Idleness, nodes)
		}
		prev = r.Idleness
	}
	if prev < 0.02 {
		t.Errorf("idleness at 16 nodes only %.3f; static partitioning should show imbalance", prev)
	}
}

func TestElapsedDecreasesWithNodes(t *testing.T) {
	net := ityr.DefaultNet(8)
	r1 := Run(testParams, 1, 8, net)
	r8 := Run(testParams, 8, 8, net)
	if r8.Elapsed >= r1.Elapsed {
		t.Fatalf("8 nodes (%d) not faster than 1 node (%d)", r8.Elapsed, r1.Elapsed)
	}
}

func TestBusyConservation(t *testing.T) {
	net := ityr.DefaultNet(8)
	r1 := Run(testParams, 1, 8, net)
	r4 := Run(testParams, 4, 8, net)
	var sum1, sum4 int64
	for _, b := range r1.Busy {
		sum1 += b
	}
	for _, b := range r4.Busy {
		sum4 += b
	}
	if sum1 != sum4 {
		t.Fatalf("total work changed with partitioning: %d vs %d", sum1, sum4)
	}
}

func TestDeterministic(t *testing.T) {
	net := ityr.DefaultNet(8)
	a := Run(testParams, 8, 8, net)
	b := Run(testParams, 8, 8, net)
	if a.Elapsed != b.Elapsed || a.Idleness != b.Idleness {
		t.Fatal("nondeterministic MPI model")
	}
}

func TestIdlenessWorseForClusteredDistributions(t *testing.T) {
	// The paper's idleness comes from static particle-count partitioning
	// mismatching interaction counts. Clustered distributions widen that
	// mismatch, so Plummer idleness must be at least the cube's.
	net := ityr.DefaultNet(8)
	idle := func(d fmm.Dist) float64 {
		p := testParams
		p.Dist = d
		return Run(p, 8, 8, net).Idleness
	}
	cube, plummer := idle(fmm.Cube), idle(fmm.Plummer)
	t.Logf("idleness on 8 nodes: cube %.3f, plummer %.3f", cube, plummer)
	if plummer < cube {
		t.Errorf("plummer idleness %.3f below cube %.3f", plummer, cube)
	}
}

// TestBusyIsFMMSerialTime pins the shared accounting: whatever the partition,
// the nodes' busy times sum to the task-parallel version's serial time, the
// same tree's kernel counts priced by the same cost table.
func TestBusyIsFMMSerialTime(t *testing.T) {
	net := ityr.DefaultNet(8)
	for _, d := range []fmm.Dist{fmm.Cube, fmm.Sphere, fmm.Plummer} {
		p := fmm.Params{N: 3000, Dist: d}.WithDefaults()
		want := fmm.CountKernels(fmm.BuildTree(fmm.GenBodiesDist(p.N, p.Seed, p.Dist), p.NCrit), p.Theta).SerialTime()
		for _, nodes := range []int{1, 3, 8} {
			var sum int64
			for _, b := range Run(p, nodes, 8, net).Busy {
				sum += b
			}
			if sum != want {
				t.Errorf("dist %v, %d nodes: busy sums to %d, fmm serial time is %d", d, nodes, sum, want)
			}
		}
	}
}

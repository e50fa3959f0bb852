package taskbench

import (
	"fmt"
	"testing"

	"ityr"
)

func smokeParams(sh Shape) Params {
	return Params{Shape: sh, Width: 32, Steps: 6, GrainNs: 1000, EdgeBytes: 64, Seed: 7}
}

func smokeConfig(pol ityr.SchedPolicy) ityr.Config {
	return ityr.Config{
		Ranks: 4, CoresPerNode: 2,
		Pgas: ityr.PgasConfig{
			BlockSize: 4 << 10, SubBlockSize: 512, CacheSize: 1 << 20,
			Policy: ityr.WriteBackLazy,
		},
		Seed:  42,
		Sched: ityr.SchedConfig{Policy: pol},
	}
}

// TestDepsDeterministic pins generator determinism per shape: the same
// Params produce the same graph on every call (same seed → same graph).
func TestDepsDeterministic(t *testing.T) {
	for _, sh := range Shapes {
		p := smokeParams(sh)
		a := fmt.Sprint(depsAll(p))
		b := fmt.Sprint(depsAll(p))
		if a != b {
			t.Fatalf("%v: graph changed between calls", sh)
		}
	}
	// Random must actually vary with the seed (the others are seed-free).
	p1, p2 := smokeParams(Random), smokeParams(Random)
	p2.Seed = 8
	if fmt.Sprint(depsAll(p1)) == fmt.Sprint(depsAll(p2)) {
		t.Fatal("Random graph identical across different seeds")
	}
}

func depsAll(p Params) [][]int {
	var all [][]int
	for step := 1; step <= p.Steps; step++ {
		for i := 0; i < p.Width; i++ {
			all = append(all, p.Deps(step, i))
		}
	}
	return all
}

// TestDepsShapeProperties checks each shape's structural contract: edge
// counts, bounds, and sortedness/deduplication.
func TestDepsShapeProperties(t *testing.T) {
	p := Params{Width: 16, Steps: 3, Seed: 5}
	for _, sh := range Shapes {
		p.Shape = sh
		for step := 1; step <= p.Steps; step++ {
			for i := 0; i < p.Width; i++ {
				deps := p.Deps(step, i)
				for k, d := range deps {
					if d < 0 || d >= p.Width {
						t.Fatalf("%v dep %d out of range", sh, d)
					}
					if k > 0 && deps[k-1] >= d {
						t.Fatalf("%v deps not sorted/deduped: %v", sh, deps)
					}
				}
				switch sh {
				case Trivial:
					if len(deps) != 0 {
						t.Fatalf("trivial task has deps: %v", deps)
					}
				case Stencil:
					want := 3
					if i == 0 || i == p.Width-1 {
						want = 2
					}
					if len(deps) != want {
						t.Fatalf("stencil(%d) deps = %v, want %d", i, deps, want)
					}
				case Nearest:
					if len(deps) != 2*radius+1 {
						t.Fatalf("nearest deps = %v, want %d", deps, 2*radius+1)
					}
				case Spread:
					if len(deps) != fan {
						t.Fatalf("spread deps = %v, want %d", deps, fan)
					}
				case Random:
					if len(deps) == 0 || len(deps) > fan {
						t.Fatalf("random deps = %v, want 1..%d", deps, fan)
					}
				}
			}
		}
	}
}

// TestRunDigestDeterministic: same config, same params → same digest.
func TestRunDigestDeterministic(t *testing.T) {
	for _, sh := range Shapes {
		sh := sh
		t.Run(sh.String(), func(t *testing.T) {
			r1, err := Run(smokeConfig(ityr.ChildFirst), smokeParams(sh))
			if err != nil {
				t.Fatal(err)
			}
			r2, err := Run(smokeConfig(ityr.ChildFirst), smokeParams(sh))
			if err != nil {
				t.Fatal(err)
			}
			if r1.Digest() != r2.Digest() {
				t.Fatalf("digest moved:\n  %s\n  %s", r1.Digest(), r2.Digest())
			}
		})
	}
}

// TestChecksumPolicyInvariant: the checksum is a property of the graph,
// not the schedule — all three scheduling policies must agree on it (the
// cross-policy correctness check).
func TestChecksumPolicyInvariant(t *testing.T) {
	for _, sh := range Shapes {
		sh := sh
		t.Run(sh.String(), func(t *testing.T) {
			var want uint64
			for k, pol := range ityr.SchedPolicies {
				r, err := Run(smokeConfig(pol), smokeParams(sh))
				if err != nil {
					t.Fatalf("%v: %v", pol, err)
				}
				if r.Tasks != int64(32*6) {
					t.Fatalf("tasks = %d, want %d", r.Tasks, 32*6)
				}
				if k == 0 {
					want = r.Checksum
				} else if r.Checksum != want {
					t.Fatalf("%v checksum %016x != childfirst %016x", pol, r.Checksum, want)
				}
			}
		})
	}
}

// TestEdgeBytesMovesTraffic: widening cells must move more RMA bytes —
// the communication-intensity knob has to be real, not cosmetic.
func TestEdgeBytesMovesTraffic(t *testing.T) {
	p := smokeParams(Spread)
	thin, err := Run(smokeConfig(ityr.ChildFirst), p)
	if err != nil {
		t.Fatal(err)
	}
	p.EdgeBytes = 1024
	wide, err := Run(smokeConfig(ityr.ChildFirst), p)
	if err != nil {
		t.Fatal(err)
	}
	if wide.Stats.GetBytes+wide.Stats.PutBytes <= thin.Stats.GetBytes+thin.Stats.PutBytes {
		t.Fatalf("1024B cells moved %d bytes, 64B cells %d — knob inert",
			wide.Stats.GetBytes+wide.Stats.PutBytes, thin.Stats.GetBytes+thin.Stats.PutBytes)
	}
}

// TestGrainExtendsElapsed: coarser tasks must take longer in virtual time.
func TestGrainExtendsElapsed(t *testing.T) {
	p := smokeParams(Trivial)
	fine, err := Run(smokeConfig(ityr.ChildFirst), p)
	if err != nil {
		t.Fatal(err)
	}
	p.GrainNs = 50000
	coarse, err := Run(smokeConfig(ityr.ChildFirst), p)
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Elapsed <= fine.Elapsed {
		t.Fatalf("coarse grain elapsed %d <= fine %d", coarse.Elapsed, fine.Elapsed)
	}
}

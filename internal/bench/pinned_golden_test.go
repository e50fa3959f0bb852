package bench

import (
	"testing"

	"ityr"
	"ityr/internal/apps/halo"
)

// The digests below were captured on the commit preceding the per-rank
// memory diet and the three-tier network model. They pin the promise those
// changes make: with the default two-tier topology (NodesPerRack unset)
// the simulated schedule — every timestamp, every RMA counter, every trace
// event — is bit-identical to what the repo produced before. A mismatch
// here means the refactor changed simulated behaviour, not just host cost.
//
// kernelDigest covers the fork-join path (cilksort at the Smoke scale,
// tracing on); the halo digests cover the pure-SPMD path at two geometries,
// including the 64-rank config the fleet benchmark replicates.

var pinnedKernelDigests = map[string]string{
	"No Cache":          "elapsed=1072872 final=1155212 events=13515 fnv=f263a64ed20028ff",
	"Write-Through":     "elapsed=578327 final=661067 events=13769 fnv=65aac4844bbc1689",
	"Write-Back":        "elapsed=590386 final=673126 events=13607 fnv=0a73ab85caa57462",
	"Write-Back (Lazy)": "elapsed=597253 final=679993 events=13415 fnv=c0b23cefbbe25faa",
}

func TestPinnedKernelDigests(t *testing.T) {
	for _, pol := range ityr.Policies {
		want, ok := pinnedKernelDigests[pol.String()]
		if !ok {
			t.Fatalf("no pinned digest for policy %q — capture one and add it", pol)
		}
		if got := kernelDigest(t, Smoke, pol); got != want {
			t.Errorf("%s: kernel digest diverged from pre-diet capture:\n  pinned: %s\n  got:    %s",
				pol, want, got)
		}
	}
}

var pinnedHaloDigests = []struct {
	cfg  halo.Config
	want string
}{
	// A long, wide halo: 4,096 cells per rank for 50 steps (captured as the
	// geometry of the host-speedup sweep PR 18 retired; kept as a pin).
	{halo.Config{Ranks: 32, CoresPerNode: 8, CellsPerRank: 4096, Steps: 50},
		"elapsed=1089091 checksum=40ef4c5200201dca fnv=6d217bb135526c09"},
	// The fleet benchmark's per-member geometry (scaling.go).
	{halo.Config{Ranks: 64, CoresPerNode: 8, CellsPerRank: 256, Steps: 20},
		"elapsed=335701 checksum=40be660f44097649 fnv=1df8cbae82d9ef9b"},
}

func TestPinnedHaloDigests(t *testing.T) {
	for _, tc := range pinnedHaloDigests {
		res, err := halo.Run(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Digest(); got != tc.want {
			t.Errorf("halo %dx%d steps=%d diverged from pre-diet capture:\n  pinned: %s\n  got:    %s",
				tc.cfg.Ranks, tc.cfg.CellsPerRank, tc.cfg.Steps, tc.want, got)
		}
	}
}

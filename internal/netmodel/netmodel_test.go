package netmodel

import (
	"testing"
	"testing/quick"

	"ityr/internal/sim"
)

func TestTopology(t *testing.T) {
	p := Default(4)
	if p.Node(0) != 0 || p.Node(3) != 0 || p.Node(4) != 1 || p.Node(11) != 2 {
		t.Fatal("node mapping wrong for 4 cores/node")
	}
	if !p.SameNode(0, 3) || p.SameNode(3, 4) {
		t.Fatal("SameNode wrong")
	}
	z := Params{} // CoresPerNode 0 → every rank its own node
	if z.Node(7) != 7 {
		t.Fatal("degenerate topology wrong")
	}
}

func TestCostOrdering(t *testing.T) {
	p := Default(4)
	const n = 4096
	local := p.TransferTime(2, 2, n)
	intra := p.TransferTime(0, 2, n)
	inter := p.TransferTime(0, 5, n)
	if !(local < intra && intra < inter) {
		t.Fatalf("cost ordering violated: local=%d intra=%d inter=%d", local, intra, inter)
	}
	if p.AtomicTime(0, 0) >= p.AtomicTime(0, 1) {
		t.Fatal("local atomic should be cheapest")
	}
	if p.AtomicTime(0, 1) >= p.AtomicTime(0, 5) {
		t.Fatal("intra-node atomic should be cheaper than inter-node")
	}
}

func TestTransferMonotonicInSize(t *testing.T) {
	p := Default(2)
	f := func(a, b uint16) bool {
		x, y := int(a)%1000, int(b)%1000
		small, big := x, y
		if small > big {
			small, big = big, small
		}
		return p.TransferTime(0, 3, small) <= p.TransferTime(0, 3, big)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSerializationExcludesLatency(t *testing.T) {
	p := Default(1)
	n := 6000
	st, _ := p.Wire(0, 1, n)
	tt := p.TransferTime(0, 1, n)
	if st >= tt {
		t.Fatalf("serialization %d should be below full transfer %d", st, tt)
	}
	if st, lat := p.Wire(1, 1, n); st != 0 || lat != 0 {
		t.Fatal("self serialization should be free")
	}
}

// Tier attribution drives the streaming profile's communication matrix:
// self < node < fabric, and a pair of distinct nodes is fabric whatever
// their distance.
func TestTierAttribution(t *testing.T) {
	p := Default(4)
	cases := []struct{ a, b, want int }{
		{3, 3, TierSelf},
		{0, 3, TierNode},
		{0, 4, TierFabric},
		{0, 8, TierFabric},
		{8, 11, TierNode}, // third node's intra-node pair
		{8, 15, TierFabric},
	}
	for _, c := range cases {
		if got := p.Tier(c.a, c.b); got != c.want {
			t.Errorf("Tier(%d,%d) = %s, want %s", c.a, c.b, TierName[got], TierName[c.want])
		}
	}
}

// The cost model before link: each cost function decided the tier itself.
// Kept verbatim, less the rack tier, as the oracle of
// TestLinkMatchesPerFunctionTiers.
func oldTier(p *Params, a, b int) int {
	switch {
	case a == b:
		return TierSelf
	case p.SameNode(a, b):
		return TierNode
	default:
		return TierFabric
	}
}

func oldTransferTime(p *Params, a, b, n int) sim.Time {
	if a == b {
		return 0
	}
	if p.SameNode(a, b) {
		return p.IntraLatency + sim.Time(float64(n)/p.IntraBandwidth)
	}
	return p.Latency + sim.Time(float64(n)/p.Bandwidth)
}

func oldSerializationTime(p *Params, a, b, n int) sim.Time {
	if a == b {
		return 0
	}
	if p.SameNode(a, b) {
		return sim.Time(float64(n) / p.IntraBandwidth)
	}
	return sim.Time(float64(n) / p.Bandwidth)
}

func oldAtomicTime(p *Params, a, b int) sim.Time {
	if a == b {
		return 60 * sim.Nanosecond
	}
	if p.SameNode(a, b) {
		return p.IntraAtomicRTT
	}
	return p.AtomicRTT
}

// TestLinkMatchesPerFunctionTiers holds the one tier lookup to the
// per-function tier decisions it replaced: every rank pair of a 24-rank
// machine under the two-tier model must price every transfer,
// serialization, latency and atomic bit-equal, and name the same tier.
func TestLinkMatchesPerFunctionTiers(t *testing.T) {
	p := Default(4)
	const ranks = 24
	for a := 0; a < ranks; a++ {
		for b := 0; b < ranks; b++ {
			if got, want := p.Tier(a, b), oldTier(&p, a, b); got != want {
				t.Errorf("Tier(%d,%d) = %d, want %d", a, b, got, want)
			}
			if got, want := p.AtomicTime(a, b), oldAtomicTime(&p, a, b); got != want {
				t.Errorf("AtomicTime(%d,%d) = %d, want %d", a, b, got, want)
			}
			for _, n := range []int{0, 1, 8, 100, 2048, 65536, 1 << 30} {
				if got, want := p.TransferTime(a, b, n), oldTransferTime(&p, a, b, n); got != want {
					t.Errorf("TransferTime(%d,%d,%d) = %d, want %d", a, b, n, got, want)
				}
				ser, latency := p.Wire(a, b, n)
				if want := oldSerializationTime(&p, a, b, n); ser != want {
					t.Errorf("Wire(%d,%d,%d) serialization = %d, want %d", a, b, n, ser, want)
				}
				if want := oldTransferTime(&p, a, b, 0); latency != want {
					t.Errorf("Wire(%d,%d,%d) latency = %d, want %d", a, b, n, latency, want)
				}
			}
		}
	}
}

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

// stubPerturber adds fixed extras, recording what base it was handed.
type stubPerturber struct {
	extra    sim.Time
	lastBase sim.Time
}

func (s *stubPerturber) TransferExtra(now sim.Time, a, b, n int, base sim.Time) sim.Time {
	s.lastBase = base
	return s.extra
}

func (s *stubPerturber) AtomicExtra(now sim.Time, a, b int, base sim.Time) sim.Time {
	s.lastBase = base
	return s.extra
}

// TestAtVariantsMatchBaseWithoutPerturber: the time-aware cost variants
// are exactly the base model when no Perturber is set.
func TestAtVariantsMatchBaseWithoutPerturber(t *testing.T) {
	p := Default(4)
	for _, n := range []int{0, 8, 4096} {
		if got, want := p.TransferTimeAt(123, 0, 5, n), p.TransferTime(0, 5, n); got != want {
			t.Errorf("TransferTimeAt(n=%d) = %d, want base %d", n, got, want)
		}
	}
	if got, want := p.AtomicTimeAt(123, 0, 5), p.AtomicTime(0, 5); got != want {
		t.Errorf("AtomicTimeAt = %d, want base %d", got, want)
	}
	if got := p.TransferExtraAt(123, 0, 5, 64, 1000); got != 0 {
		t.Errorf("TransferExtraAt without perturber = %d, want 0", got)
	}
}

// TestAtVariantsApplyPerturber: with a Perturber set the variants add its
// extra for remote pairs and hand it the unperturbed base, but never
// perturb rank-local operations.
func TestAtVariantsApplyPerturber(t *testing.T) {
	p := Default(4)
	stub := &stubPerturber{extra: 777}
	p.Perturb = stub
	base := p.TransferTime(0, 5, 256)
	if got := p.TransferTimeAt(9, 0, 5, 256); got != base+777 {
		t.Errorf("TransferTimeAt = %d, want base %d + 777", got, base)
	}
	if stub.lastBase != base {
		t.Errorf("perturber saw base %d, want %d", stub.lastBase, base)
	}
	abase := p.AtomicTime(0, 5)
	if got := p.AtomicTimeAt(9, 0, 5); got != abase+777 {
		t.Errorf("AtomicTimeAt = %d, want base %d + 777", got, abase)
	}
	if got := p.TransferExtraAt(9, 0, 5, 256, 1000); got != 777 {
		t.Errorf("TransferExtraAt = %d, want 777", got)
	}
	// Local operations bypass the fabric and must stay unperturbed.
	if got, want := p.TransferTimeAt(9, 3, 3, 256), p.TransferTime(3, 3, 256); got != want {
		t.Errorf("local TransferTimeAt = %d, want unperturbed %d", got, want)
	}
	if got := p.TransferExtraAt(9, 3, 3, 256, 1000); got != 0 {
		t.Errorf("local TransferExtraAt = %d, want 0", got)
	}
}

// TestRackTopology: rack indexing and the tier predicate.
func TestRackTopology(t *testing.T) {
	p := Default(4)
	p.NodesPerRack = 2 // ranks 0-7 rack 0, 8-15 rack 1, ...
	if p.Rack(0) != 0 || p.Rack(7) != 0 || p.Rack(8) != 1 || p.Rack(17) != 2 {
		t.Fatal("rack mapping wrong for 4 cores/node, 2 nodes/rack")
	}
	if !p.SameRack(3, 7) || p.SameRack(7, 8) {
		t.Fatal("SameRack wrong")
	}
	// No rack tier: every node is its own rack.
	q := Default(4)
	if q.Rack(5) != q.Node(5) {
		t.Fatal("rackless Rack should equal Node")
	}
	if q.Tier(0, 5) == TierRack {
		t.Fatal("the rack tier must be off when NodesPerRack <= 0")
	}
	if p.Tier(0, 2) == TierRack {
		t.Fatal("same-node pairs never travel the rack tier")
	}
	if p.Tier(0, 5) != TierRack {
		t.Fatal("distinct nodes of one rack travel the rack tier")
	}
	if p.Tier(0, 9) == TierRack {
		t.Fatal("cross-rack pairs travel the fabric, not the rack tier")
	}
}

// TestThreeTierCosts: with a rack tier configured the cost functions select
// among three tiers, ordered local < intra-node < intra-rack < fabric, and
// partially specified rack params fall back to the fabric numbers.
func TestThreeTierCosts(t *testing.T) {
	p := Default(4)
	p.NodesPerRack = 2
	p.RackLatency = 600 * sim.Nanosecond
	p.RackBandwidth = 10.0
	p.RackAtomicRTT = 1300 * sim.Nanosecond
	const n = 4096
	local := p.TransferTime(2, 2, n)
	intra := p.TransferTime(0, 2, n)  // same node
	rack := p.TransferTime(0, 5, n)   // same rack, different node
	fabric := p.TransferTime(0, 9, n) // different rack
	if !(local < intra && intra < rack && rack < fabric) {
		t.Fatalf("three-tier ordering violated: local=%d intra=%d rack=%d fabric=%d",
			local, intra, rack, fabric)
	}
	if got, want := rack, p.RackLatency+sim.Time(float64(n)/p.RackBandwidth); got != want {
		t.Errorf("rack TransferTime = %d, want %d", got, want)
	}
	if st, _ := p.Wire(0, 5, n); st != sim.Time(float64(n)/p.RackBandwidth) {
		t.Errorf("rack serialization = %d, want %d", st, sim.Time(float64(n)/p.RackBandwidth))
	}
	if at := p.AtomicTime(0, 5); at != p.RackAtomicRTT {
		t.Errorf("rack AtomicTime = %d, want %d", at, p.RackAtomicRTT)
	}
	if at := p.AtomicTime(0, 9); at != p.AtomicRTT {
		t.Errorf("fabric AtomicTime = %d, want %d", at, p.AtomicRTT)
	}
	// Partial rack tier: unset fields inherit the fabric values, so rack
	// links never undercut the fabric by omission.
	q := Default(4)
	q.NodesPerRack = 2
	if q.TransferTime(0, 5, n) != q.TransferTime(0, 9, n) {
		t.Error("unset rack params should price rack links as fabric")
	}
	if q.AtomicTime(0, 5) != q.AtomicRTT {
		t.Error("unset RackAtomicRTT should fall back to fabric AtomicRTT")
	}
}

// TestTwoTierDefaultUnchanged: with NodesPerRack at its zero default the
// cost model is bit-identical to the classic two-tier one — the rack fields
// are dead weight. This is the contract that keeps all pre-rack golden
// digests valid.
func TestTwoTierDefaultUnchanged(t *testing.T) {
	p := Default(4)
	r := p
	r.RackLatency = 600 * sim.Nanosecond // set but inert: NodesPerRack == 0
	r.RackBandwidth = 10.0
	r.RackAtomicRTT = 1300 * sim.Nanosecond
	for _, pair := range [][2]int{{0, 0}, {0, 2}, {0, 5}, {0, 13}, {3, 4}} {
		a, b := pair[0], pair[1]
		for _, n := range []int{0, 8, 4096} {
			if p.TransferTime(a, b, n) != r.TransferTime(a, b, n) {
				t.Errorf("TransferTime(%d,%d,%d) changed with inert rack fields", a, b, n)
			}
			ps, pl := p.Wire(a, b, n)
			rs, rl := r.Wire(a, b, n)
			if ps != rs || pl != rl {
				t.Errorf("Wire(%d,%d,%d) changed with inert rack fields", a, b, n)
			}
		}
		if p.AtomicTime(a, b) != r.AtomicTime(a, b) {
			t.Errorf("AtomicTime(%d,%d) changed with inert rack fields", a, b)
		}
	}
}

// Tier attribution drives the streaming profile's communication matrix:
// self < node < rack < fabric, with the rack tier appearing only when the
// topology defines one.
func TestTierAttribution(t *testing.T) {
	p := RackDefault(4, 2) // 4 cores/node, 2 nodes/rack => 8 ranks/rack
	cases := []struct{ a, b, want int }{
		{3, 3, TierSelf},
		{0, 3, TierNode},
		{0, 4, TierRack},
		{0, 8, TierFabric},
		{8, 11, TierNode}, // second rack's intra-node pair
		{8, 15, TierRack}, // second rack, across its two nodes
	}
	for _, c := range cases {
		if got := p.Tier(c.a, c.b); got != c.want {
			t.Errorf("Tier(%d,%d) = %s, want %s", c.a, c.b, TierName[got], TierName[c.want])
		}
	}
	// Rack transfers must price between intra-node and fabric.
	const n = 4096
	intra := p.TransferTime(0, 1, n)
	rack := p.TransferTime(0, 4, n)
	fabric := p.TransferTime(0, 8, n)
	if !(intra < rack && rack < fabric) {
		t.Errorf("rack cost ordering violated: intra=%d rack=%d fabric=%d", intra, rack, fabric)
	}
	// The flat default has no rack tier: everything cross-node is fabric.
	flat := Default(4)
	if flat.Tier(0, 4) != TierFabric || flat.Tier(0, 3) != TierNode || flat.Tier(2, 2) != TierSelf {
		t.Error("flat-fabric tier attribution wrong")
	}
	if RackDefault(4, 0) != Default(4) {
		t.Error("RackDefault with 0 nodes/rack should be the flat default")
	}
}

// The cost model before link: each cost function decided the tier itself,
// with the rack tier's fallbacks in helpers of their own. Kept verbatim as
// the oracle of TestLinkMatchesPerFunctionTiers.
func oldRackTier(p *Params, a, b int) bool {
	return p.NodesPerRack > 0 && !p.SameNode(a, b) && p.SameRack(a, b)
}

func oldRackLatency(p *Params) sim.Time {
	if p.RackLatency > 0 {
		return p.RackLatency
	}
	return p.Latency
}

func oldRackBandwidth(p *Params) float64 {
	if p.RackBandwidth > 0 {
		return p.RackBandwidth
	}
	return p.Bandwidth
}

func oldRackAtomicRTT(p *Params) sim.Time {
	if p.RackAtomicRTT > 0 {
		return p.RackAtomicRTT
	}
	return p.AtomicRTT
}

func oldTier(p *Params, a, b int) int {
	switch {
	case a == b:
		return TierSelf
	case p.SameNode(a, b):
		return TierNode
	case oldRackTier(p, a, b):
		return TierRack
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
	if oldRackTier(p, a, b) {
		return oldRackLatency(p) + sim.Time(float64(n)/oldRackBandwidth(p))
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
	if oldRackTier(p, a, b) {
		return sim.Time(float64(n) / oldRackBandwidth(p))
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
	if oldRackTier(p, a, b) {
		return oldRackAtomicRTT(p)
	}
	return p.AtomicRTT
}

// TestLinkMatchesPerFunctionTiers holds the one tier lookup to the
// per-function tier decisions it replaced: every rank pair of a 24-rank
// machine, under the two-tier model, the rack-tier preset, and the rack
// tier with each rack field unset in turn (its fallback to the fabric),
// must price every transfer, serialization, latency and atomic bit-equal,
// and name the same tier.
func TestLinkMatchesPerFunctionTiers(t *testing.T) {
	configs := map[string]Params{"two-tier": Default(4), "rack": RackDefault(4, 2)}
	for _, unset := range []string{"latency", "bandwidth", "atomic"} {
		p := RackDefault(4, 2)
		switch unset {
		case "latency":
			p.RackLatency = 0
		case "bandwidth":
			p.RackBandwidth = 0
		case "atomic":
			p.RackAtomicRTT = 0
		}
		configs["rack-no-"+unset] = p
	}
	const ranks = 24
	for name, p := range configs {
		for a := 0; a < ranks; a++ {
			for b := 0; b < ranks; b++ {
				if got, want := p.Tier(a, b), oldTier(&p, a, b); got != want {
					t.Errorf("%s: Tier(%d,%d) = %d, want %d", name, a, b, got, want)
				}
				if got, want := p.AtomicTime(a, b), oldAtomicTime(&p, a, b); got != want {
					t.Errorf("%s: AtomicTime(%d,%d) = %d, want %d", name, a, b, got, want)
				}
				for _, n := range []int{0, 1, 8, 100, 2048, 65536, 1 << 30} {
					if got, want := p.TransferTime(a, b, n), oldTransferTime(&p, a, b, n); got != want {
						t.Errorf("%s: TransferTime(%d,%d,%d) = %d, want %d", name, a, b, n, got, want)
					}
					ser, latency := p.Wire(a, b, n)
					if want := oldSerializationTime(&p, a, b, n); ser != want {
						t.Errorf("%s: Wire(%d,%d,%d) serialization = %d, want %d", name, a, b, n, ser, want)
					}
					if want := oldTransferTime(&p, a, b, 0); latency != want {
						t.Errorf("%s: Wire(%d,%d,%d) latency = %d, want %d", name, a, b, n, latency, want)
					}
				}
			}
		}
	}
}

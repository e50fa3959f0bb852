// Package netmodel defines the interconnect cost model used by the
// simulated communication layer.
//
// The model is deliberately simple — a latency/bandwidth (LogGP-flavoured)
// model with node topology — because the protocols under study (software
// caching, work stealing, epoch-based release) are sensitive to message
// counts, message sizes and round trips, not to fine interconnect detail.
// Defaults approximate one rank's share of a Tofu-D-class RDMA network
// (Table 1 of the paper).
package netmodel

import (
	"math"

	"ityr/internal/sim"
)

// Perturber injects time-dependent link faults on top of the base model:
// latency spikes, jitter, bandwidth collapse. Implemented by
// fault.Injector; the interface lives here so the dependency points from
// the fault plan toward the network model, not the other way around. Both
// methods return *extra* time to add to the unperturbed cost `base`; they
// may keep deterministic per-origin counters (the simulation kernel runs
// one goroutine at a time, so calls are serialized and reproducible).
type Perturber interface {
	// TransferExtra perturbs a transfer of n bytes from rank a to b
	// issued at virtual time now, whose unperturbed wire time is base.
	TransferExtra(now sim.Time, a, b, n int, base sim.Time) sim.Time
	// AtomicExtra perturbs a remote atomic from rank a to b.
	AtomicExtra(now sim.Time, a, b int, base sim.Time) sim.Time
}

// Params describes the simulated machine: topology and communication costs.
//
// The model has the paper's two locality tiers, selected per rank pair by
// topology: intra-node (shared memory) and fabric (the full interconnect),
// plus the free self pair. A deeper hierarchy, such as the intra-rack tier
// of DART-MPI's locality-tiered transports, would be one more case of
// link and one more Tier.
//
// Each cost function decides a pair's tier once, through the one lookup
// link; Tier names the same tier. The model is read in place
// (rma.Comm.Net hands out a pointer), never copied per operation.
type Params struct {
	// CoresPerNode gives the number of ranks (one process per core, as in
	// Itoyori) placed on each node. Rank r lives on node r/CoresPerNode.
	CoresPerNode int

	// Latency is the one-way RDMA latency across the fabric (between nodes).
	Latency sim.Time
	// Bandwidth is the per-rank fabric bandwidth in bytes per
	// nanosecond (1 byte/ns = 1 GB/s).
	Bandwidth float64
	// AtomicRTT is the round-trip cost of a remote atomic operation
	// (compare-and-swap, fetch-and-op) across the fabric.
	AtomicRTT sim.Time

	// IntraLatency and IntraBandwidth apply between ranks on the same node
	// (shared-memory transport).
	IntraLatency   sim.Time
	IntraBandwidth float64
	// IntraAtomicRTT is the cost of an atomic to a rank on the same node.
	IntraAtomicRTT sim.Time

	// MsgOverhead is the origin-side CPU cost of issuing any one-sided
	// operation (descriptor setup, doorbell).
	MsgOverhead sim.Time

	// Perturb, when non-nil, degrades links per the active fault plan.
	// The *At cost variants consult it; the plain variants never do, so
	// existing call sites are untouched when no faults are configured.
	Perturb Perturber
}

// Default returns Tofu-D-flavoured parameters with the given node width.
func Default(coresPerNode int) Params {
	return Params{
		CoresPerNode:   coresPerNode,
		Latency:        1200 * sim.Nanosecond,
		Bandwidth:      6.0, // 6 GB/s per rank
		AtomicRTT:      2600 * sim.Nanosecond,
		IntraLatency:   250 * sim.Nanosecond,
		IntraBandwidth: 16.0,
		IntraAtomicRTT: 400 * sim.Nanosecond,
		MsgOverhead:    120 * sim.Nanosecond,
	}
}

// Locality tiers returned by Tier, ordered nearest to farthest. The values
// are stable indices (profile accumulators array over them); NumTiers is
// the array length.
const (
	TierSelf   = iota // a == b: no wire traffic at all
	TierNode          // distinct ranks sharing a node (shared-memory transport)
	TierFabric        // everything else: the full interconnect
	NumTiers          // number of locality tiers
)

// TierName maps a Tier index to its short lowercase name.
var TierName = [NumTiers]string{"self", "node", "fabric"}

// Tier classifies the locality tier that traffic from rank a to rank b
// travels — the same tier TransferTime and AtomicTime price.
func (p *Params) Tier(a, b int) int { return p.link(a, b).tier }

// Node returns the node index hosting rank r.
func (p *Params) Node(r int) int {
	if p.CoresPerNode <= 0 {
		return r
	}
	return r / p.CoresPerNode
}

// SameNode reports whether ranks a and b share a node.
func (p *Params) SameNode(a, b int) bool { return p.Node(a) == p.Node(b) }

// link is the locality tier one rank pair's traffic travels and that
// tier's costs.
type link struct {
	tier      int
	latency   sim.Time
	bandwidth float64 // bytes per nanosecond
	atomicRTT sim.Time
}

// link decides the tier a-to-b traffic travels and returns its costs, the
// one place every cost function reads them from. Self traffic never
// touches the wire: its infinite bandwidth and zero latency make every
// transfer free, and its atomic is a local CAS through the NIC loopback.
func (p *Params) link(a, b int) link {
	switch {
	case a == b:
		return link{TierSelf, 0, math.Inf(1), 60 * sim.Nanosecond}
	case p.SameNode(a, b):
		return link{TierNode, p.IntraLatency, p.IntraBandwidth, p.IntraAtomicRTT}
	default:
		return link{TierFabric, p.Latency, p.Bandwidth, p.AtomicRTT}
	}
}

// Wire returns the two parts of moving n bytes from rank a to rank b: the
// time they occupy the origin NIC (which back-to-back messages pipeline
// behind) and the latency that follows. Both are 0 for a == b.
func (p *Params) Wire(a, b, n int) (ser, latency sim.Time) {
	l := p.link(a, b)
	return sim.Time(float64(n) / l.bandwidth), l.latency
}

// TransferTime returns the wire time for moving n bytes between ranks a and
// b, excluding the origin-side MsgOverhead: Wire's two parts. Transfers
// between distinct processes on the same node pay the shared-memory cost,
// everything else pays the fabric cost; a==b is free.
func (p *Params) TransferTime(a, b, n int) sim.Time {
	ser, latency := p.Wire(a, b, n)
	return latency + ser
}

// AtomicTime returns the cost of a remote atomic from rank a to rank b.
func (p *Params) AtomicTime(a, b int) sim.Time { return p.link(a, b).atomicRTT }

// TransferTimeAt is TransferTime plus any fault-plan perturbation active
// at virtual time now. With no Perturber (or a == b) it equals
// TransferTime exactly.
func (p *Params) TransferTimeAt(now sim.Time, a, b, n int) sim.Time {
	t := p.TransferTime(a, b, n)
	if p.Perturb != nil && a != b {
		t += p.Perturb.TransferExtra(now, a, b, n, t)
	}
	return t
}

// AtomicTimeAt is AtomicTime plus any fault-plan perturbation active at
// virtual time now.
func (p *Params) AtomicTimeAt(now sim.Time, a, b int) sim.Time {
	t := p.AtomicTime(a, b)
	if p.Perturb != nil && a != b {
		t += p.Perturb.AtomicExtra(now, a, b, t)
	}
	return t
}

// TransferExtraAt returns only the perturbation a transfer of n bytes from
// a to b would suffer at now, given its unperturbed wire time base. Used
// by callers that assemble the base cost from separate serialization and
// latency terms (the RMA NIC pipeline) yet want the fault plan applied to
// the whole.
func (p *Params) TransferExtraAt(now sim.Time, a, b, n int, base sim.Time) sim.Time {
	if p.Perturb == nil || a == b {
		return 0
	}
	return p.Perturb.TransferExtra(now, a, b, n, base)
}

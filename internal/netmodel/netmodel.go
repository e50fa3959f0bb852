// Package netmodel defines the interconnect cost model used by the
// simulated communication layer.
//
// The model is deliberately simple — a latency/bandwidth (LogGP-flavoured)
// model with node topology — because the protocols under study (software
// caching, work stealing, epoch-based release) are sensitive to message
// counts, message sizes and round trips, not to fine interconnect detail.
// Defaults approximate one rank's share of a Tofu-D-class RDMA network
// (Table 1 of the paper).
//
// Every cost here is a pure function of the rank pair and the size: the
// model knows no time and no faults. A fault plan's link windows are added
// on top by the RMA layer, which asks the armed fault.Injector for each
// remote op's extra (LinkExtra) and hands it the cost priced here as base.
package netmodel

import (
	"math"

	"ityr/internal/sim"
)

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

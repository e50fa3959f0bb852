// Package profile is the constant-memory streaming profile layer: the
// scale-friendly companion to the full span tracer in internal/trace.
//
// At 16K+ ranks, per-rank span rings either blow the per-rank memory
// budget or silently truncate, so this package folds observability into
// fixed-size per-rank accumulators as events happen instead of keeping the
// events themselves:
//
//   - RMA op counts and bytes per operation kind, summed online. They
//     include the scheduler's CAS and stack traffic, which rma.Stats does
//     not count; event counts the layers' own Stats keep are not repeated
//     here.
//   - Communication matrix: per-locality-tier (self/node/fabric)
//     op and byte totals attributed via netmodel.Tier, plus a per-rank
//     top-K heavy-hitter table of hot targets (space-saving sketch), so a
//     rank×rank matrix never materializes at scale. At or below
//     MatrixMaxRanks the exact matrix is kept instead — it is tiny there.
//   - Timeline: a fixed number of buckets over simulated time with
//     per-kind occupancy; bucket width starts at timelineBaseNs and
//     doubles (folding pairs of buckets, exactly) whenever a span lands
//     past the end, so any run length fits the same storage. The rollup's
//     busy/steal/idle/stall/barrier totals are its column sums.
//
// Everything is per rank: each rank mutates only its own accumulator.
// Recording never advances virtual time, so profiles are digest-inert. A
// nil *Profile is the off switch: every method is nil-safe and
// allocation-free, matching the trace discipline.
package profile

import (
	"encoding/json"
	"io"
	"sort"

	"ityr/internal/netmodel"
	"ityr/internal/sim"
)

// Schema identifies the snapshot JSON layout.
const Schema = "itoyori-profile/v1"

// Sizing knobs. All are O(1) per rank — the whole point.
const (
	// TimelineBuckets is the fixed number of timeline buckets per rank.
	TimelineBuckets = 32
	// timelineBaseNs is the initial bucket width; widths are always
	// timelineBaseNs << k, which makes cross-rank rebinning exact.
	timelineBaseNs = sim.Time(1) << 14 // ~16.4 simulated µs
	// TopKPerRank bounds the per-rank hot-target sketch above the matrix
	// threshold.
	TopKPerRank = 8
	// HotPairsMax bounds the hot-pair list in the snapshot.
	HotPairsMax = 16
	// MatrixMaxRanks is the largest rank count for which the exact
	// rank×rank byte matrix is kept (64² uint64 = 32 KiB total).
	MatrixMaxRanks = 64
)

// SpanKind classifies a recorded span for rollups and the timeline.
type SpanKind uint8

// Span kinds, in timeline column order.
const (
	SpanTask    SpanKind = iota // useful work inside a task segment
	SpanSteal                   // steal attempts (successful or not)
	SpanIdle                    // scheduler idle backoff
	SpanStall                   // RMA flush stalls (waiting on the NIC pipeline)
	SpanBarrier                 // SPMD barrier wait
	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{"task", "steal", "idle", "stall", "barrier"}

// Op classifies an RMA operation for the communication matrix.
type Op uint8

// RMA operation kinds.
const (
	OpGet Op = iota
	OpPut
	OpAtomic
)

// rec is one rank's accumulator. Fixed size by construction (the matrix
// row is only allocated at or below MatrixMaxRanks); each rank writes only
// its own rec.
type rec struct {
	getOps, putOps, atomicOps uint64
	getBytes, putBytes        uint64

	tierOps   [netmodel.NumTiers]uint64
	tierBytes [netmodel.NumTiers]uint64

	// Space-saving heavy-hitter sketch of hot targets (used above
	// MatrixMaxRanks). Slots fill in first-touch order; once full, the
	// minimum-byte slot is usurped with its count inherited, the classic
	// space-saving overestimate that never undercounts a true heavy
	// hitter.
	hotTo    [TopKPerRank]int32
	hotOps   [TopKPerRank]uint32
	hotBytes [TopKPerRank]uint64
	hotN     int32

	// Exact matrix row (bytes, ops), nil above MatrixMaxRanks.
	rowBytes []uint64
	rowOps   []uint32

	tl timeline
}

// timeline is the per-rank time-sliced occupancy histogram. The bucket
// width doubles (folding pairs exactly) whenever a span lands beyond the
// covered range, so TimelineBuckets buckets span any run length.
type timeline struct {
	width sim.Time
	occ   [TimelineBuckets][numSpanKinds]uint64
}

func (tl *timeline) grow() {
	for i := 0; i < TimelineBuckets/2; i++ {
		for k := range tl.occ[i] {
			tl.occ[i][k] = tl.occ[2*i][k] + tl.occ[2*i+1][k]
		}
	}
	for i := TimelineBuckets / 2; i < TimelineBuckets; i++ {
		tl.occ[i] = [numSpanKinds]uint64{}
	}
	tl.width *= 2
}

// add smears the span [t0, t0+d) across the buckets it overlaps.
func (tl *timeline) add(k SpanKind, t0, d sim.Time) {
	if d <= 0 {
		return
	}
	if tl.width == 0 {
		tl.width = timelineBaseNs // first span: lazy init, keeps rec zero-valued
	}
	end := t0 + d
	for end > tl.width*TimelineBuckets {
		tl.grow()
	}
	b := int(t0 / tl.width)
	for t0 < end {
		bEnd := sim.Time(b+1) * tl.width
		seg := end
		if bEnd < seg {
			seg = bEnd
		}
		tl.occ[b][k] += uint64(seg - t0)
		t0 = bEnd
		b++
	}
}

// rebin returns the timeline's occupancy at the (coarser or equal) target
// width. Widths are power-of-two multiples of each other, so the fold is
// exact.
func (tl *timeline) rebin(width sim.Time) [TimelineBuckets][numSpanKinds]uint64 {
	out := tl.occ
	for w := tl.width; w < width; w *= 2 {
		var folded [TimelineBuckets][numSpanKinds]uint64
		for i := 0; i < TimelineBuckets/2; i++ {
			for k := range folded[i] {
				folded[i][k] = out[2*i][k] + out[2*i+1][k]
			}
		}
		out = folded
	}
	return out
}

// Profile is the streaming profile collector for one run. The zero value
// is not used; create with New. A nil *Profile is a valid disabled
// profile: every recording method is a nil-safe no-op.
type Profile struct {
	net   netmodel.Params
	ranks []rec
}

// New returns a collector for the given rank count, attributing
// communication locality with net. Memory is O(ranks · (buckets + top-K)):
// roughly 1.5 KiB per rank, independent of the rank² pair space.
func New(ranks int, net netmodel.Params) *Profile {
	p := &Profile{net: net, ranks: make([]rec, ranks)}
	if ranks <= MatrixMaxRanks {
		bytes := make([]uint64, ranks*ranks)
		ops := make([]uint32, ranks*ranks)
		for i := range p.ranks {
			p.ranks[i].rowBytes = bytes[i*ranks : (i+1)*ranks : (i+1)*ranks]
			p.ranks[i].rowOps = ops[i*ranks : (i+1)*ranks : (i+1)*ranks]
		}
	}
	return p
}

// Span folds a closed span of kind k covering [t0, t0+d) into rank's
// timeline. Nil-safe, allocation-free, never advances time.
func (p *Profile) Span(rank int, k SpanKind, t0, d sim.Time) {
	if p != nil {
		p.ranks[rank].tl.add(k, t0, d)
	}
}

// RMA folds one one-sided operation from rank to target into the
// communication matrix. Nil-safe and allocation-free.
func (p *Profile) RMA(rank, target int, op Op, nbytes int) {
	if p == nil {
		return
	}
	r := &p.ranks[rank]
	n := uint64(nbytes)
	switch op {
	case OpGet:
		r.getOps++
		r.getBytes += n
	case OpPut:
		r.putOps++
		r.putBytes += n
	case OpAtomic:
		r.atomicOps++
	}
	t := p.net.Tier(rank, target)
	r.tierOps[t]++
	r.tierBytes[t] += n
	if r.rowBytes != nil {
		r.rowBytes[target] += n
		r.rowOps[target]++
		return
	}
	r.noteHot(int32(target), n)
}

// noteHot updates the space-saving hot-target sketch.
func (r *rec) noteHot(target int32, nbytes uint64) {
	for i := int32(0); i < r.hotN; i++ {
		if r.hotTo[i] == target {
			r.hotOps[i]++
			r.hotBytes[i] += nbytes
			return
		}
	}
	if r.hotN < TopKPerRank {
		i := r.hotN
		r.hotN++
		r.hotTo[i] = target
		r.hotOps[i] = 1
		r.hotBytes[i] = nbytes
		return
	}
	min := 0
	for i := 1; i < TopKPerRank; i++ {
		if r.hotBytes[i] < r.hotBytes[min] {
			min = i
		}
	}
	r.hotTo[min] = target
	r.hotOps[min] = 1
	r.hotBytes[min] += nbytes
}

// Rollup is the cross-rank sum of every scalar accumulator.
type Rollup struct {
	// Virtual time by span kind, in nanoseconds: the timeline's column
	// sums.
	TaskNs    uint64 `json:"task_ns"`
	StealNs   uint64 `json:"steal_ns"`
	IdleNs    uint64 `json:"idle_ns"`
	StallNs   uint64 `json:"stall_ns"`
	BarrierNs uint64 `json:"barrier_ns"`
	// One-sided operation totals.
	GetOps    uint64 `json:"rma_get_ops"`
	PutOps    uint64 `json:"rma_put_ops"`
	AtomicOps uint64 `json:"rma_atomic_ops"`
	GetBytes  uint64 `json:"rma_get_bytes"`
	PutBytes  uint64 `json:"rma_put_bytes"`
}

// TierStat is one locality tier's share of the communication matrix.
type TierStat struct {
	// Tier is the locality tier name (self/node/fabric).
	Tier string `json:"tier"`
	// Ops counts one-sided operations on this tier.
	Ops uint64 `json:"ops"`
	// Bytes counts payload bytes moved on this tier.
	Bytes uint64 `json:"bytes"`
}

// HotPair is one origin→target communication pair.
type HotPair struct {
	// From and To are the origin and target ranks.
	From int `json:"from"`
	To   int `json:"to"`
	// Ops and Bytes total the pair's one-sided traffic. Above
	// MatrixMaxRanks these come from the space-saving sketch and may
	// overestimate (never underestimate) a pair that displaced another.
	Ops   uint64 `json:"ops"`
	Bytes uint64 `json:"bytes"`
}

// Timeline is the merged time-sliced occupancy histogram.
type Timeline struct {
	// BucketNs is the bucket width in simulated nanoseconds.
	BucketNs sim.Time `json:"bucket_ns"`
	// Kinds names the columns of Occupancy.
	Kinds []string `json:"kinds"`
	// Occupancy[b][k] is the summed virtual time of kind Kinds[k] spans
	// overlapping bucket b, across all ranks.
	Occupancy [][]uint64 `json:"occupancy"`
}

// Doc is the self-describing "itoyori-profile/v1" snapshot.
type Doc struct {
	// Schema is always the package Schema constant.
	Schema string `json:"schema"`
	// Ranks is the simulated rank count.
	Ranks int `json:"ranks"`
	// Rollup sums every scalar accumulator across ranks.
	Rollup Rollup `json:"rollup"`
	// Tiers splits communication by locality tier, nearest first.
	Tiers []TierStat `json:"tiers"`
	// HotPairs lists the heaviest origin→target pairs, by bytes.
	HotPairs []HotPair `json:"hot_pairs"`
	// HotPairsApprox marks HotPairs as sketch-derived (see HotPair).
	HotPairsApprox bool `json:"hot_pairs_approx,omitempty"`
	// Matrix is the exact rank×rank byte matrix, present only at or
	// below MatrixMaxRanks ranks.
	Matrix [][]uint64 `json:"matrix,omitempty"`
	// Timeline is the merged per-kind occupancy over simulated time.
	Timeline Timeline `json:"timeline"`
}

// Snapshot merges the per-rank accumulators into a Doc, in rank order.
// Safe to call only when the simulation is idle.
func (p *Profile) Snapshot() *Doc {
	doc := &Doc{Schema: Schema, Ranks: len(p.ranks)}

	var tiers [netmodel.NumTiers]TierStat
	width := timelineBaseNs
	for i := range p.ranks {
		r := &p.ranks[i]
		doc.Rollup.GetOps += r.getOps
		doc.Rollup.PutOps += r.putOps
		doc.Rollup.AtomicOps += r.atomicOps
		doc.Rollup.GetBytes += r.getBytes
		doc.Rollup.PutBytes += r.putBytes
		for t := 0; t < netmodel.NumTiers; t++ {
			tiers[t].Ops += r.tierOps[t]
			tiers[t].Bytes += r.tierBytes[t]
		}
		if r.tl.width > width {
			width = r.tl.width
		}
	}
	for t := 0; t < netmodel.NumTiers; t++ {
		tiers[t].Tier = netmodel.TierName[t]
	}
	doc.Tiers = tiers[:]

	doc.HotPairs, doc.HotPairsApprox = p.hotPairs()
	if len(p.ranks) > 0 && p.ranks[0].rowBytes != nil {
		doc.Matrix = make([][]uint64, len(p.ranks))
		for i := range p.ranks {
			doc.Matrix[i] = p.ranks[i].rowBytes
		}
	}

	doc.Timeline = Timeline{BucketNs: width, Kinds: spanKindNames[:]}
	occ := make([][]uint64, TimelineBuckets)
	cells := make([]uint64, TimelineBuckets*int(numSpanKinds))
	for b := range occ {
		occ[b] = cells[b*int(numSpanKinds) : (b+1)*int(numSpanKinds)]
	}
	var total [numSpanKinds]uint64
	for i := range p.ranks {
		r := &p.ranks[i]
		if r.tl.width == 0 {
			continue
		}
		binned := r.tl.rebin(width)
		for b := 0; b < TimelineBuckets; b++ {
			for k := 0; k < int(numSpanKinds); k++ {
				occ[b][k] += binned[b][k]
				total[k] += binned[b][k]
			}
		}
	}
	doc.Timeline.Occupancy = occ
	ru := &doc.Rollup
	ru.TaskNs, ru.StealNs, ru.IdleNs = total[SpanTask], total[SpanSteal], total[SpanIdle]
	ru.StallNs, ru.BarrierNs = total[SpanStall], total[SpanBarrier]
	return doc
}

// hotPairs extracts the global top pairs: exact (from the matrix) at small
// rank counts, sketch-derived above the threshold.
func (p *Profile) hotPairs() ([]HotPair, bool) {
	pairs := []HotPair{}
	approx := false
	if len(p.ranks) > 0 && p.ranks[0].rowBytes != nil {
		for i := range p.ranks {
			r := &p.ranks[i]
			for j, b := range r.rowBytes {
				if r.rowOps[j] > 0 {
					pairs = append(pairs, HotPair{From: i, To: j, Ops: uint64(r.rowOps[j]), Bytes: b})
				}
			}
		}
	} else {
		approx = true
		for i := range p.ranks {
			r := &p.ranks[i]
			for s := int32(0); s < r.hotN; s++ {
				pairs = append(pairs, HotPair{From: i, To: int(r.hotTo[s]), Ops: uint64(r.hotOps[s]), Bytes: r.hotBytes[s]})
			}
		}
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].Bytes != pairs[b].Bytes {
			return pairs[a].Bytes > pairs[b].Bytes
		}
		if pairs[a].From != pairs[b].From {
			return pairs[a].From < pairs[b].From
		}
		return pairs[a].To < pairs[b].To
	})
	if len(pairs) > HotPairsMax {
		pairs = pairs[:HotPairsMax]
	}
	return pairs, approx
}

// WriteJSON writes the snapshot as indented JSON. Field order is fixed by
// the Doc struct and every merge is rank-ordered, so the bytes are stable
// across runs.
func (d *Doc) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

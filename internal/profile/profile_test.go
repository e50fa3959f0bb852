package profile

import (
	"bytes"
	"strings"
	"testing"

	"ityr/internal/netmodel"
	"ityr/internal/sim"
)

func sumKind(doc *Doc, kind string) uint64 {
	col := -1
	for k, name := range doc.Timeline.Kinds {
		if name == kind {
			col = k
		}
	}
	if col < 0 {
		return 0
	}
	var total uint64
	for _, bucket := range doc.Timeline.Occupancy {
		total += bucket[col]
	}
	return total
}

func TestSpanRollupAndTimeline(t *testing.T) {
	p := New(2, netmodel.Default(8))
	p.Span(0, SpanTask, 0, 100)
	p.Span(0, SpanTask, 200, 50)
	p.Span(1, SpanIdle, 40, 60)
	p.Span(1, SpanBarrier, 100, 0) // zero-length: must be ignored
	doc := p.Snapshot()
	if doc.Rollup.TaskNs != 150 || doc.Rollup.IdleNs != 60 || doc.Rollup.BarrierNs != 0 {
		t.Errorf("rollup = %+v", doc.Rollup)
	}
	if got := sumKind(doc, "task"); got != 150 {
		t.Errorf("timeline task occupancy = %d, want 150", got)
	}
	if got := sumKind(doc, "idle"); got != 60 {
		t.Errorf("timeline idle occupancy = %d, want 60", got)
	}
}

// The timeline's bucket width doubles by folding pairs, and the snapshot
// rebins every rank to the coarsest width — both folds must preserve the
// total occupancy exactly, for spans far beyond the initial coverage and
// for ranks whose timelines grew by different amounts.
func TestTimelineGrowthPreservesTotals(t *testing.T) {
	p := New(2, netmodel.Default(8))
	p.Span(0, SpanTask, 0, 128)
	p.Span(0, SpanTask, 1000*timelineBaseNs, 12345) // forces many doublings on rank 0
	p.Span(1, SpanSteal, 3, 77)                     // rank 1 stays at the base width
	r0 := &p.ranks[0]
	if r0.tl.width <= timelineBaseNs {
		t.Fatalf("rank 0 timeline did not grow: width=%d", r0.tl.width)
	}
	if end := r0.tl.width * TimelineBuckets; 1000*timelineBaseNs+12345 > end {
		t.Fatalf("span end beyond grown coverage %d", end)
	}
	doc := p.Snapshot()
	if got := sumKind(doc, "task"); got != 128+12345 {
		t.Errorf("task occupancy after growth = %d, want %d", got, 128+12345)
	}
	if got := sumKind(doc, "steal"); got != 77 {
		t.Errorf("steal occupancy after cross-rank rebin = %d, want 77", got)
	}
	if doc.Timeline.BucketNs != r0.tl.width {
		t.Errorf("snapshot width %d, want the coarsest rank width %d", doc.Timeline.BucketNs, r0.tl.width)
	}
}

func TestExactMatrixSmallRanks(t *testing.T) {
	p := New(4, netmodel.Default(2))
	p.RMA(0, 1, OpGet, 100)
	p.RMA(0, 1, OpGet, 28)
	p.RMA(1, 3, OpPut, 64)
	p.RMA(2, 2, OpAtomic, 8)
	doc := p.Snapshot()
	if doc.Matrix == nil {
		t.Fatal("matrix missing at small rank count")
	}
	if doc.Matrix[0][1] != 128 || doc.Matrix[1][3] != 64 {
		t.Errorf("matrix = %v", doc.Matrix)
	}
	if doc.HotPairsApprox {
		t.Error("exact matrix marked approximate")
	}
	if doc.Rollup.GetOps != 2 || doc.Rollup.GetBytes != 128 ||
		doc.Rollup.PutOps != 1 || doc.Rollup.PutBytes != 64 || doc.Rollup.AtomicOps != 1 {
		t.Errorf("rollup = %+v", doc.Rollup)
	}
	// Tier attribution with 2 cores/node, flat fabric: (0,1) same node,
	// (1,3) cross node, (2,2) self.
	byTier := map[string]uint64{}
	for _, ts := range doc.Tiers {
		byTier[ts.Tier] = ts.Bytes
	}
	if byTier["node"] != 128 || byTier["fabric"] != 64 || byTier["self"] != 8 || len(byTier) != 3 {
		t.Errorf("tier split = %v", byTier)
	}
	if len(doc.HotPairs) == 0 || doc.HotPairs[0].From != 0 || doc.HotPairs[0].To != 1 || doc.HotPairs[0].Bytes != 128 {
		t.Errorf("hot pairs = %+v", doc.HotPairs)
	}
}

// Above MatrixMaxRanks the per-rank sketch takes over. The space-saving
// property: a target heavier than every sketch slot can be overestimated
// but never undercounted, and the slot table stays at TopKPerRank.
func TestHotTargetSketchNeverUndercounts(t *testing.T) {
	ranks := MatrixMaxRanks + 4
	p := New(ranks, netmodel.Default(8))
	const heavyTarget, heavyBytes = 1, 1 << 20
	p.RMA(0, heavyTarget, OpGet, heavyBytes)
	for target := 2; target < 2+2*TopKPerRank; target++ { // churn the slots
		p.RMA(0, target, OpGet, 64)
	}
	r := &p.ranks[0]
	if r.rowBytes != nil {
		t.Fatal("exact matrix present above the threshold")
	}
	if r.hotN != TopKPerRank {
		t.Fatalf("sketch slots = %d, want %d", r.hotN, TopKPerRank)
	}
	doc := p.Snapshot()
	if !doc.HotPairsApprox {
		t.Error("sketch-derived hot pairs not marked approximate")
	}
	if doc.Matrix != nil {
		t.Error("snapshot materialized a matrix above the threshold")
	}
	found := false
	for _, hp := range doc.HotPairs {
		if hp.From == 0 && hp.To == heavyTarget {
			found = true
			if hp.Bytes < heavyBytes {
				t.Errorf("heavy pair undercounted: %d < %d", hp.Bytes, heavyBytes)
			}
		}
	}
	if !found {
		t.Errorf("heavy hitter evicted from the sketch: %+v", doc.HotPairs)
	}
}

// The snapshot is a deterministic rank-ordered fold: identical recording
// sequences must serialize to identical bytes, and an idle profile must
// emit [] (not null) for hot_pairs so consumers can range unconditionally.
func TestSnapshotBytesDeterministic(t *testing.T) {
	build := func() *Profile {
		p := New(8, netmodel.Default(2))
		for r := 0; r < 8; r++ {
			p.Span(r, SpanTask, sim.Time(r)*10, 100)
			p.RMA(r, (r+1)%8, OpPut, 256)
		}
		return p
	}
	var a, b bytes.Buffer
	if err := build().Snapshot().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical recordings serialized differently")
	}
	if !strings.Contains(a.String(), `"schema": "`+Schema+`"`) {
		t.Errorf("snapshot missing schema:\n%s", a.String())
	}
	var idle bytes.Buffer
	if err := New(2, netmodel.Default(8)).Snapshot().WriteJSON(&idle); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(idle.String(), `"hot_pairs": []`) {
		t.Errorf("idle profile hot_pairs not []:\n%s", idle.String())
	}
}

// The off-switch discipline: a nil *Profile records nothing and allocates
// nothing, and an armed profile's hot recording paths are allocation-free
// too (all state is fixed-size by construction).
func TestProfileZeroAllocs(t *testing.T) {
	var off *Profile
	if n := testing.AllocsPerRun(100, func() {
		off.Span(0, SpanTask, 0, 10)
		off.RMA(0, 1, OpGet, 64)
	}); n != 0 {
		t.Errorf("disabled profile allocates %v per record, want 0", n)
	}
	on := New(4, netmodel.Default(2))
	if n := testing.AllocsPerRun(100, func() {
		on.Span(0, SpanTask, 0, 10)
		on.RMA(0, 1, OpGet, 64)
	}); n != 0 {
		t.Errorf("armed profile allocates %v per record, want 0", n)
	}
}

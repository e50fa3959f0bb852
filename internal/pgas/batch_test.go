package pgas

import (
	"bytes"
	"testing"
)

// runCoalesceBody drives the write-back pattern shared by the coalescing
// tests: rank 0 writes one region spanning the boundary between rank 1's
// first two home blocks plus a second, hole-separated region in the second
// block, then release-fences. The home chunk is pre-filled with a sentinel
// so a put that illegally bridged the hole would destroy it.
func runCoalesceBody(t *testing.T, coalesce bool) *Space {
	t.Helper()
	cfg := smallCfg(WriteBack) // 256-byte blocks, 64-byte sub-blocks
	cfg.CoalesceWriteBack = coalesce
	return testCluster(t, 2, 1, cfg, func(l *Local) {
		if l.Rank().ID() != 0 {
			l.Rank().Barrier()
			return
		}
		base := l.AllocCollective(4096, BlockDist) // 2048-byte chunk per rank
		chunk := base + 2048                       // rank 1's home: blocks at +2048 and +2304
		sentinel := make([]byte, 2048)
		for i := range sentinel {
			sentinel[i] = 0xAB
		}
		if err := l.Put(sentinel, chunk); err != nil {
			t.Errorf("put sentinel: %v", err)
		}

		write := func(addr Addr, size uint64, fill byte) {
			v, err := l.Checkout(addr, size, Write)
			if err != nil {
				t.Errorf("checkout(%#x,%d): %v", addr, size, err)
				return
			}
			for i := range v {
				v[i] = fill
			}
			if err := l.Checkin(addr, size, Write); err != nil {
				t.Errorf("checkin(%#x,%d): %v", addr, size, err)
			}
		}
		// [chunk+200, chunk+300): 56 bytes in block 0, 44 in block 1 —
		// adjacent in rank 1's segment, mergeable into one Put.
		write(chunk+200, 100, 0x11)
		// [chunk+400, chunk+450): same block 1, but a hole at [300,400)
		// separates it — must remain its own Put.
		write(chunk+400, 50, 0x22)
		l.ReleaseFence()

		check := func(addr Addr, size uint64, want byte) {
			got, err := l.Get(addr, size)
			if err != nil {
				t.Errorf("get(%#x,%d): %v", addr, size, err)
				return
			}
			if !bytes.Equal(got, bytes.Repeat([]byte{want}, int(size))) {
				t.Errorf("[%#x,%d): got %x.., want all %02x", addr, size, got[:4], want)
			}
		}
		check(chunk+200, 100, 0x11)
		check(chunk+400, 50, 0x22)
		check(chunk+300, 100, 0xAB) // the hole keeps its sentinel
		l.Rank().Barrier()
	})
}

// TestCoalesceAcrossBlockBoundaryWithHole checks that two dirty regions
// adjacent across a block boundary merge into one Put while a
// hole-separated region does not, with byte-identical home contents and
// traffic volume versus the unbatched path.
func TestCoalesceAcrossBlockBoundaryWithHole(t *testing.T) {
	off := runCoalesceBody(t, false)
	on := runCoalesceBody(t, true)

	if off.Stats.WriteBackOps != 3 {
		t.Errorf("unbatched WriteBackOps = %d, want 3", off.Stats.WriteBackOps)
	}
	if off.Batch != (BatchStats{}) {
		t.Errorf("unbatched run has nonzero batch stats: %+v", off.Batch)
	}
	if on.Stats.WriteBackOps != 2 {
		t.Errorf("coalesced WriteBackOps = %d, want 2 (merged boundary + separate hole run)", on.Stats.WriteBackOps)
	}
	if on.Stats.WriteBackBytes != off.Stats.WriteBackBytes {
		t.Errorf("coalescing changed write-back volume: %d vs %d bytes",
			on.Stats.WriteBackBytes, off.Stats.WriteBackBytes)
	}
	if on.Batch.WBRunsMerged != 1 || on.Batch.WBCoalescedBytes != 100 {
		t.Errorf("batch stats = %+v, want 1 run merged / 100 coalesced bytes", on.Batch)
	}
}

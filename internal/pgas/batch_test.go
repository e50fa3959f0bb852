package pgas

import (
	"bytes"
	"testing"
)

// runCoalesceBody drives the write-back pattern shared by the coalescing
// tests under pol, with no other option set: rank 0 writes one region
// spanning the boundary between rank 1's first two home blocks plus a
// second, hole-separated region in the second block, then release-fences.
// The home chunk is pre-filled with a sentinel so a put that illegally
// bridged the hole would destroy it.
func runCoalesceBody(t *testing.T, pol Policy) *Space {
	t.Helper()
	cfg := smallCfg(pol) // 256-byte blocks, 64-byte sub-blocks
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
			puts := l.space.comm.Stats().PutOps
			if err := l.Checkin(addr, size, Write); err != nil {
				t.Errorf("checkin(%#x,%d): %v", addr, size, err)
			}
			// Under write-through every checkin ships its pieces itself:
			// consecutive same-home blocks go out as one Put.
			if got := l.space.comm.Stats().PutOps - puts; pol == WriteThrough && got != 1 {
				t.Errorf("write-through checkin(%#x,%d) issued %d puts, want 1", addr, size, got)
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

// checkCoalesced checks the traffic both policies must produce: the two
// boundary-adjacent runs merged into one Put, the hole-separated run its
// own, and every written byte shipped once.
func checkCoalesced(t *testing.T, s *Space) {
	t.Helper()
	if s.Stats.WriteBackOps != 2 || s.Stats.WriteBackBytes != 150 {
		t.Errorf("write-back = %d ops / %d bytes, want 2 / 150 (merged boundary + separate hole run)",
			s.Stats.WriteBackOps, s.Stats.WriteBackBytes)
	}
	if s.Batch.WBRunsMerged != 1 || s.Batch.WBCoalescedBytes != 100 {
		t.Errorf("batch stats = %+v, want 1 run merged / 100 coalesced bytes", s.Batch)
	}
}

// TestCoalesceAcrossBlockBoundaryWithHole checks that, with no option set,
// two dirty regions adjacent across a block boundary merge into one Put at
// the release fence while a hole-separated region does not.
func TestCoalesceAcrossBlockBoundaryWithHole(t *testing.T) {
	checkCoalesced(t, runCoalesceBody(t, WriteBack))
}

// TestWriteThroughCheckinCoalesces checks the write-through path: a checkin
// spanning two consecutive same-home blocks ships one Put, and the fence
// after it has nothing left to write.
func TestWriteThroughCheckinCoalesces(t *testing.T) {
	checkCoalesced(t, runCoalesceBody(t, WriteThrough))
}

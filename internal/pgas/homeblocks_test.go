package pgas

import (
	"testing"
)

// TestHomeBlockEvictionUnderMapBudget exercises §4.3.2: home blocks are
// dynamically mapped with reference counts and evicted under the
// memory-mapping-entry budget, so a process can access far more home
// memory than it can keep mapped.
func TestHomeBlockEvictionUnderMapBudget(t *testing.T) {
	cfg := Config{
		BlockSize:    256,
		SubBlockSize: 64,
		CacheSize:    4096,
		Policy:       WriteBack,
	}
	// 16 blocks more of local home memory (about 1 MiB) than can be mapped
	// at once, all accessed round-robin twice.
	const n = maxHomeBlocks + 16
	s := testCluster(t, 1, 1, cfg, func(l *Local) {
		base := l.AllocCollective(n*256, BlockDist)
		for pass := 0; pass < 2; pass++ {
			for b := 0; b < n; b++ {
				addr := base + Addr(b*256)
				if pass == 0 {
					v, err := l.Checkout(addr, 256, Write)
					if err != nil {
						t.Fatalf("block %d: %v", b, err)
					}
					for i := range v {
						v[i] = byte(b)
					}
					l.Checkin(addr, 256, Write)
				} else {
					v, err := l.Checkout(addr, 256, Read)
					if err != nil {
						t.Fatalf("block %d pass 2: %v", b, err)
					}
					if v[0] != byte(b) || v[255] != byte(b) {
						t.Fatalf("block %d corrupted after home eviction", b)
					}
					l.Checkin(addr, 256, Read)
				}
			}
		}
	})
	// 2n block accesses through a table of maxHomeBlocks entries must have
	// evicted and mapped blocks again.
	if s.Stats.Mmaps <= n {
		t.Fatalf("only %d mmaps for %d blocks; home blocks were not remapped under pressure", s.Stats.Mmaps, n)
	}
}

// TestHomeBlocksPinnedWhileCheckedOut verifies the too-much-checkout
// exception also applies to the home-block table (footnote path of §4.3.2).
func TestHomeBlocksPinnedWhileCheckedOut(t *testing.T) {
	cfg := Config{
		BlockSize:    256,
		SubBlockSize: 64,
		CacheSize:    4096,
		Policy:       WriteBack,
	}
	testCluster(t, 1, 1, cfg, func(l *Local) {
		base := l.AllocCollective((maxHomeBlocks+1)*256, BlockDist)
		// Pin every home block the table holds: 1 MiB checked out.
		for b := 0; b < maxHomeBlocks; b++ {
			if _, err := l.Checkout(base+Addr(b*256), 256, Read); err != nil {
				t.Fatalf("block %d: %v", b, err)
			}
		}
		// One more mapping cannot be made while all are pinned.
		last := base + maxHomeBlocks*256
		if _, err := l.Checkout(last, 256, Read); err == nil {
			t.Fatal("checkout beyond the home-block budget succeeded while pinned")
		}
		l.Checkin(base, 256, Read)
		// Now one entry is evictable.
		if _, err := l.Checkout(last, 256, Read); err != nil {
			t.Fatalf("checkout after unpin failed: %v", err)
		}
		l.Checkin(last, 256, Read)
		for b := 1; b < maxHomeBlocks; b++ {
			l.Checkin(base+Addr(b*256), 256, Read)
		}
	})
}

package pgas

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ityr/internal/netmodel"
	"ityr/internal/rma"
	"ityr/internal/sim"
)

// TestRandomGeometryMatchesReference fuzzes the cache configuration itself:
// random block sizes, sub-block sizes, cache capacities, rank counts,
// policies and distributions, each driven through a random DRF access
// sequence against a host-side reference array. This catches geometry
// arithmetic bugs (block/sub-block boundary handling, padding clipping,
// eviction under odd capacities) that fixed-geometry tests cannot.
func TestRandomGeometryMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))

		// Random geometry.
		blockSize := 64 << rng.Intn(5) // 64..1024
		sub := blockSize >> rng.Intn(3)
		if sub < 16 {
			sub = 16
		}
		for blockSize%sub != 0 {
			sub /= 2
		}
		nblocks := 2 + rng.Intn(30)
		cfg := Config{
			BlockSize:    blockSize,
			SubBlockSize: sub,
			CacheSize:    nblocks * blockSize,
			Policy:       Policies[rng.Intn(len(Policies))],
		}
		nranks := 1 + rng.Intn(6)
		cpn := 1 + rng.Intn(3)
		dist := DistPolicy(rng.Intn(2))
		size := 1 + rng.Intn(4096)
		maxChunk := nblocks * blockSize / 2 // keep checkouts well inside capacity
		if maxChunk > size {
			maxChunk = size
		}

		ref := make([]byte, size)
		failed := ""

		e := sim.NewEngine()
		c := rma.New(e, nranks, netmodel.Default(cpn))
		s := New(c, cfg)
		for i := 0; i < nranks; i++ {
			l := s.Local(i)
			e.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
				l.Rank().Attach(p)
				if l.Rank().ID() != 0 {
					l.Rank().Barrier()
					return
				}
				base := l.AllocCollective(uint64(size), dist)
				for op := 0; op < 200 && failed == ""; op++ {
					off := rng.Intn(size)
					n := 1 + rng.Intn(maxChunk)
					if off+n > size {
						n = size - off
					}
					mode := Mode(rng.Intn(3))
					v, err := l.Checkout(base+Addr(off), uint64(n), mode)
					if err != nil {
						failed = fmt.Sprintf("op %d: checkout(%d,%d,%v): %v", op, off, n, mode, err)
						return
					}
					switch mode {
					case Read:
						for i := range v {
							if v[i] != ref[off+i] {
								failed = fmt.Sprintf("op %d: read byte %d = %d, want %d (geom b=%d sb=%d cap=%d pol=%v dist=%v)",
									op, off+i, v[i], ref[off+i], blockSize, sub, nblocks, cfg.Policy, dist)
								return
							}
						}
					case Write, ReadWrite:
						if mode == ReadWrite {
							for i := range v {
								if v[i] != ref[off+i] {
									failed = fmt.Sprintf("op %d: RMW byte %d = %d, want %d", op, off+i, v[i], ref[off+i])
									return
								}
							}
						}
						for i := range v {
							v[i] = byte(rng.Intn(256))
							ref[off+i] = v[i]
						}
					}
					if err := l.Checkin(base+Addr(off), uint64(n), mode); err != nil {
						failed = fmt.Sprintf("op %d: checkin: %v", op, err)
						return
					}
					if rng.Intn(8) == 0 {
						l.ReleaseFence()
						l.AcquireFence()
					}
				}
				l.Rank().Barrier()
			})
		}
		if err := e.Run(); err != nil {
			if failed == "" {
				failed = err.Error()
			}
		}
		if failed != "" {
			t.Logf("seed %d: %s", seed, failed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

package pgas

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ityr/internal/sim"
)

// TestNoncollectiveAttachSchedule pins the simulated cost of a rank's
// noncollective heap as it grows: ten 1 MiB allocations attach 2, 6 and 14
// MiB (align(used, 1 MiB) × 2 at the first allocation past the last attach),
// each attach paying MPI_Win_attach's 2 µs on top of the allocation's own
// cost. The times are those of the heap that backed every attached byte, so
// sizing the host segment apart from the attach moves none of them.
func TestNoncollectiveAttachSchedule(t *testing.T) {
	want := []sim.Time{2150, 2300, 4450, 4600, 4750, 4900, 7050, 7200, 7350, 7500}
	var got []sim.Time
	testCluster(t, 1, 1, smallCfg(WriteBack), func(l *Local) {
		for range want {
			l.AllocLocal(1 << 20)
			got = append(got, l.Rank().Proc().Now())
		}
	})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("virtual time after each 1 MiB allocation = %v, want %v", got, want)
	}
}

// TestNoncollectiveTailFetch has a second rank read the last, partly
// allocated block of the first rank's heap. The miss pads to whole
// sub-blocks, clipped at the end of the block and at the owner's attach;
// with 4 MiB blocks the 2 MiB first attach is the clip. The fetched bytes
// are the numbers of the heap that backed every attached byte.
func TestNoncollectiveTailFetch(t *testing.T) {
	for _, tc := range []struct {
		name          string
		cfg           Config
		alloc         uint64
		lo, hi        uint64 // read [base+lo, base+hi)
		wantOps       uint64
		wantBytes     uint64
		wantOwnerTime sim.Time
	}{
		{"64 KiB blocks", Config{BlockSize: 64 << 10, SubBlockSize: 4 << 10, CacheSize: 1 << 20, Policy: WriteBack},
			100_000, 65536 + 1000, 100_000, 1, 36864, 2150},
		{"4 MiB blocks past the attach", Config{BlockSize: 4 << 20, SubBlockSize: 4 << 20, CacheSize: 4 << 20, Policy: WriteBack},
			100, 0, 100, 1, 2 << 20, 2150},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var base Addr
			var ownerTime sim.Time
			s := testCluster(t, 2, 1, tc.cfg, func(l *Local) {
				if l.Rank().ID() == 0 {
					base = l.AllocLocal(tc.alloc)
					ownerTime = l.Rank().Proc().Now()
					l.Rank().Barrier()
					return
				}
				l.Rank().Barrier()
				n := tc.hi - tc.lo
				if _, err := l.Checkout(base+Addr(tc.lo), n, Read); err != nil {
					t.Error(err)
					return
				}
				if err := l.Checkin(base+Addr(tc.lo), n, Read); err != nil {
					t.Error(err)
				}
			})
			if s.Stats.FetchOps != tc.wantOps || s.Stats.FetchBytes != tc.wantBytes {
				t.Errorf("fetched %d ops / %d bytes, want %d / %d",
					s.Stats.FetchOps, s.Stats.FetchBytes, tc.wantOps, tc.wantBytes)
			}
			if ownerTime != tc.wantOwnerTime {
				t.Errorf("owner's time after the allocation = %d, want %d", ownerTime, tc.wantOwnerTime)
			}
		})
	}
}

// TestNoncollectiveSegmentFollowsUse: the host segment behind a rank's
// noncollective heap covers every byte a miss can fetch, through the end of
// the block holding the last allocated byte or to the attach, and not much
// more: after small allocations it holds at most used + 2 × BlockSize bytes,
// not the 2 MiB the first attach names.
func TestNoncollectiveSegmentFollowsUse(t *testing.T) {
	cfg := smallCfg(WriteBack)
	bs := uint64(cfg.BlockSize)
	testCluster(t, 2, 1, cfg, func(l *Local) {
		s, me := l.Space(), l.Rank().ID()
		for i := 0; i < 200; i++ {
			l.AllocLocal(uint64(16 + 8*(i%5)))
			h := &s.nc[me]
			seg := uint64(len(s.ncWin.Seg(me)))
			if need := min(align(h.used, bs), h.attached); seg < need {
				t.Fatalf("rank %d: %d-byte segment after %d bytes allocated, below the %d a miss can read", me, seg, h.used, need)
			}
			if seg > h.used+2*bs {
				t.Fatalf("rank %d: %d-byte segment after %d bytes allocated, over used + 2 blocks", me, seg, h.used)
			}
		}
	})
}

// TestAllocLocalPastSpan: an allocation that would run past the rank's
// virtual span fails by name, before the bump pointer moves or any host
// memory is asked for, so the next allocation still fits.
func TestAllocLocalPastSpan(t *testing.T) {
	cfg := smallCfg(WriteBack)
	testCluster(t, 2, 1, cfg, func(l *Local) {
		me := l.Rank().ID()
		first := l.AllocLocal(16)
		for _, size := range []uint64{uint64(ncSpan), ^uint64(0)} {
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err, _ = r.(error)
						if err == nil {
							err = fmt.Errorf("panic %v", r)
						}
					}
				}()
				l.AllocLocal(size)
				return nil
			}()
			if !errors.Is(err, ErrOutOfRange) {
				t.Errorf("rank %d: AllocLocal(%#x) = %v, want a panic wrapping ErrOutOfRange", me, size, err)
				continue
			}
			if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("rank %d", me)) || !strings.Contains(msg, fmt.Sprint(uint64(ncSpan))) {
				t.Errorf("rank %d: error %q names neither the rank nor the span", me, msg)
			}
		}
		if next := l.AllocLocal(16); next != first+16 {
			t.Errorf("rank %d: allocation after the failures at %#x, want %#x", me, next, first+16)
		}
		if seg := len(l.Space().ncWin.Seg(me)); seg > 32+2*cfg.BlockSize {
			t.Errorf("rank %d: the failed allocations left a %d-byte segment", me, seg)
		}
	})
}

// TestCheckoutPastHandedOutFails: a checkout of noncollective bytes the
// owner's heap never handed out fails with ErrOutOfRange, under the cache
// and without it, whether or not the bytes lie inside the attach.
func TestCheckoutPastHandedOutFails(t *testing.T) {
	for _, pol := range []Policy{WriteBack, NoCache} {
		t.Run(pol.String(), func(t *testing.T) {
			var base Addr
			testCluster(t, 2, 1, smallCfg(pol), func(l *Local) {
				if l.Rank().ID() == 0 {
					base = l.AllocLocal(100) // 112 bytes handed out
					l.Rank().Barrier()
					return
				}
				l.Rank().Barrier()
				if _, err := l.Checkout(base, 112, Read); err != nil {
					t.Errorf("checkout of the handed-out bytes: %v", err)
				} else {
					l.Checkin(base, 112, Read)
				}
				for _, off := range []Addr{100, 4096, 3 << 20} {
					if _, err := l.Checkout(base+off, 16, Read); !errors.Is(err, ErrOutOfRange) {
						t.Errorf("checkout at offset %d past 112 handed-out bytes: %v, want ErrOutOfRange", off, err)
					}
				}
			})
		})
	}
}

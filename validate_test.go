package ityr_test

import (
	"errors"
	"strings"
	"testing"

	"ityr"
	"ityr/internal/pgas"
)

// TestGVectorFreedTwice: an owning GVector handle copied into a forked
// child and freed on both sides frees its buffer and header twice. The
// second Free panics with pgas.ErrBadFree, naming the free, instead of
// putting the blocks on the free list again, where two later allocations
// would both be handed them.
func TestGVectorFreedTwice(t *testing.T) {
	var err error
	func() {
		defer func() { err, _ = recover().(error) }()
		_, _ = ityr.LaunchRoot(testCfg(2, ityr.WriteBackLazy), func(c *ityr.Ctx) {
			v := ityr.NewGVector[int64](c, 4)
			v.Append(c, 1, 2, 3)
			c.Join(c.Fork(func(c *ityr.Ctx) { v.Free(c) }))
			v.Free(c)
		})
	}()
	if !errors.Is(err, pgas.ErrBadFree) || !strings.Contains(err.Error(), "core: free(0x") {
		t.Fatalf("second Free of a GVector panicked with %v, want pgas.ErrBadFree naming the free", err)
	}
}

// TestStaleCtxCharge: a forked child that charges time through its parent's
// Ctx instead of its own would bank that time on the parent's process,
// which is parked at the fork. The charge panics instead, naming both
// processes.
func TestStaleCtxCharge(t *testing.T) {
	var msg string
	func() {
		defer func() { msg, _ = recover().(string) }()
		_, _ = ityr.LaunchRoot(testCfg(2, ityr.WriteBackLazy), func(c *ityr.Ctx) {
			c.Join(c.Fork(func(*ityr.Ctx) { c.Charge(100) }))
		})
	}()
	if want := `sim: Charge on process "root" while process "thread" runs`; !strings.HasPrefix(msg, want) {
		t.Fatalf("a child charging through its parent's Ctx panicked with %q, want a message starting %q", msg, want)
	}
}

// TestStaleCtxCheckout: a forked child that checks out or in through its
// parent's Ctx would run the call as the rank's current thread, itself,
// while the parent's Ctx names the parent. Each of the three calls panics
// instead, naming both processes.
func TestStaleCtxCheckout(t *testing.T) {
	cases := []struct {
		call  string
		child func(parent, child *ityr.Ctx, a ityr.GSpan[int64])
	}{
		{"Checkout", func(parent, _ *ityr.Ctx, a ityr.GSpan[int64]) {
			_, _ = parent.Checkout(a.Ptr.Addr(), a.Bytes(), ityr.Read)
		}},
		{"MustCheckout", func(parent, _ *ityr.Ctx, a ityr.GSpan[int64]) {
			ityr.Checkout(parent, a, ityr.Read)
		}},
		{"Checkin", func(parent, child *ityr.Ctx, a ityr.GSpan[int64]) {
			ityr.Checkout(child, a, ityr.Read)
			ityr.Checkin(parent, a, ityr.Read)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.call, func(t *testing.T) {
			var msg string
			func() {
				defer func() { msg, _ = recover().(string) }()
				_, _ = ityr.LaunchRoot(testCfg(2, ityr.WriteBackLazy), func(c *ityr.Ctx) {
					a := ityr.AllocArray[int64](c, 4, ityr.BlockDist)
					c.Join(c.Fork(func(cc *ityr.Ctx) { tc.child(c, cc, a) }))
				})
			}()
			call := tc.call
			if call == "MustCheckout" {
				call = "Checkout" // MustCheckout is a Checkout
			}
			if want := `sim: ` + call + ` on process "root" while process "thread" runs`; !strings.HasPrefix(msg, want) {
				t.Fatalf("a child's %s through its parent's Ctx panicked with %q, want a message starting %q", tc.call, msg, want)
			}
		})
	}
}

package obs

import (
	"testing"

	"ityr"
	"ityr/internal/core"
)

// runWith runs body through the command skeleton on a small machine with
// the shared flags o set, and returns the exit status.
func runWith(o *options, body Body) int {
	o.sched = "childfirst"
	cfg := &core.Config{Ranks: 2, CoresPerNode: 2, Seed: 1}
	return o.run(cfg, "lazy", func(*core.Config) (Body, error) { return body, nil })
}

// TestValidatedViolationExitsOne: a validated run whose program checks a
// range out for writing while a forked child still reads it ends with the
// validator's diagnostic and exit status 1. The write-under-read panics
// inside the run (ityr.Checkout is Ctx.MustCheckout); the skeleton, not the
// Go runtime, must report it.
func TestValidatedViolationExitsOne(t *testing.T) {
	status := runWith(&options{validate: true}, func(rt *core.Runtime) (bool, error) {
		_, err := rt.RunRoot(func(c *core.Ctx) {
			a := ityr.AllocArray[int64](c, 8, ityr.BlockDist)
			child := c.Fork(func(c *core.Ctx) {
				ityr.Checkout(c, a, ityr.Read)
				c.Charge(100 * 1000) // hold the view while a thief takes the continuation
				ityr.Checkin(c, a, ityr.Read)
			})
			ityr.Checkout(c, a, ityr.ReadWrite)
			ityr.Checkin(c, a, ityr.ReadWrite)
			c.Join(child)
		})
		return true, err
	})
	if status != 1 {
		t.Errorf("validated write-under-read exited %d, want 1", status)
	}
}

// protectedBody runs 200 protected segments and reports its output as
// verified whatever they returned, so only the skeleton can fail the run.
func protectedBody(rt *core.Runtime) (bool, error) {
	_, err := rt.RunRoot(func(c *core.Ctx) {
		for i := 0; i < 200; i++ {
			c.Protected(func() uint64 { return 7 })
		}
	})
	return true, err
}

// TestSDCEscapeExitsOne: a run under -sdc whose corruptions escape the
// (absent) defenses exits 1 even when the body's own check passes; with
// every segment replicated nothing escapes and the run exits 0.
func TestSDCEscapeExitsOne(t *testing.T) {
	if status := runWith(&options{sdc: true}, protectedBody); status != 1 {
		t.Errorf("-sdc with escapes exited %d, want 1", status)
	}
	if status := runWith(&options{sdc: true, replicate: 1}, protectedBody); status != 0 {
		t.Errorf("-sdc -replicate 1 exited %d, want 0", status)
	}
}

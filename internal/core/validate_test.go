package core

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"ityr/internal/pgas"
	"ityr/internal/sim"
	"ityr/internal/trace"
)

// validateCfg is the machine every validator test runs on: small blocks so
// a few bytes exercise real cache traffic, multiple nodes so continuations
// migrate, and the validator armed.
func validateCfg() Config {
	return Config{
		Ranks:        4,
		CoresPerNode: 2,
		Pgas: pgas.Config{
			BlockSize: 512, SubBlockSize: 64, CacheSize: 8192,
			Policy: pgas.WriteBackLazy, Validate: true,
		},
		Seed: 7,
	}
}

// runOverlapScenario stages the canonical concurrent-checkout violation: a
// forked child checks out [base, base+64) in childMode and holds the view
// for 100 µs of virtual compute, while the parent's stolen continuation
// checks out the overlapping [base+32, base+96) in contMode. It returns
// the recorded violations and the fail-fast error the overlapping checkout
// observed.
func runOverlapScenario(t *testing.T, childMode, contMode pgas.Mode) ([]trace.ViolationRecord, error) {
	t.Helper()
	rt := NewRuntime(validateCfg())
	var vioErr error
	err := rt.Run(func(s *SPMD) {
		var base pgas.Addr
		if s.Rank() == 0 {
			base = s.AllocCollective(4096, pgas.BlockCyclicDist)
		}
		s.Barrier()
		s.RootExec(func(c *Ctx) {
			child := c.Fork(func(c *Ctx) {
				if _, err := c.Checkout(base, 64, childMode); err != nil {
					vioErr = err
					return
				}
				c.Charge(100 * sim.Microsecond)
				c.Checkin(base, 64, childMode)
			})
			if _, err := c.Checkout(base+32, 64, contMode); err != nil {
				vioErr = err
			} else {
				c.Checkin(base+32, 64, contMode)
			}
			c.Join(child)
		})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return rt.Space().Violations(), vioErr
}

// checkViolation asserts one recorded violation of the wanted rule whose
// diagnostic names the rule, a resolvable window, a nonempty offset range,
// and both parties' task segments.
func checkViolation(t *testing.T, recs []trace.ViolationRecord, vioErr error, rule string) trace.ViolationRecord {
	t.Helper()
	if vioErr == nil {
		t.Fatalf("expected a fail-fast %s error, checkout succeeded", rule)
	}
	if !errors.Is(vioErr, pgas.ErrViolation) {
		t.Fatalf("error %v does not wrap pgas.ErrViolation", vioErr)
	}
	if !strings.Contains(vioErr.Error(), rule) {
		t.Fatalf("error %q does not name rule %q", vioErr, rule)
	}
	if len(recs) != 1 {
		t.Fatalf("recorded %d violations, want 1: %+v", len(recs), recs)
	}
	v := recs[0]
	if v.Rule != rule {
		t.Fatalf("recorded rule %q, want %q", v.Rule, rule)
	}
	if v.Win < 0 {
		t.Fatalf("violation window unresolved: %+v", v)
	}
	if v.Hi <= v.Lo {
		t.Fatalf("empty violating range: %+v", v)
	}
	if v.Task == 0 || v.OtherTask == 0 {
		t.Fatalf("violation does not name both task segments: %+v", v)
	}
	if !strings.Contains(v.Detail, rule[:0]+"task") {
		t.Fatalf("detail %q does not mention tasks", v.Detail)
	}
	return v
}

func TestValidatorWriteUnderRead(t *testing.T) {
	recs, vioErr := runOverlapScenario(t, pgas.Read, pgas.ReadWrite)
	v := checkViolation(t, recs, vioErr, "write-under-read")
	if v.Rank == v.OtherRank {
		t.Fatalf("expected a cross-rank overlap (stolen continuation), got both on rank %d", v.Rank)
	}
}

func TestValidatorConflictingCheckouts(t *testing.T) {
	recs, vioErr := runOverlapScenario(t, pgas.Write, pgas.Write)
	checkViolation(t, recs, vioErr, "conflicting-checkouts")
}

// TestValidatorReadUnderWrite is the symmetric write-under-read case: the
// reader arrives second.
func TestValidatorReadUnderWrite(t *testing.T) {
	recs, vioErr := runOverlapScenario(t, pgas.ReadWrite, pgas.Read)
	checkViolation(t, recs, vioErr, "write-under-read")
}

func TestValidatorUseAfterCheckin(t *testing.T) {
	rt := NewRuntime(validateCfg())
	var vioErr error
	err := rt.Run(func(s *SPMD) {
		var base pgas.Addr
		if s.Rank() == 0 {
			base = s.AllocCollective(4096, pgas.BlockCyclicDist)
		}
		s.Barrier()
		s.RootExec(func(c *Ctx) {
			if _, err := c.Checkout(base, 64, pgas.ReadWrite); err != nil {
				t.Errorf("checkout: %v", err)
				return
			}
			c.Checkin(base, 64, pgas.ReadWrite)
			// The discipline break: checking the same rights in again.
			vioErr = c.Local().Checkin(base, 64, pgas.ReadWrite)
		})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	checkViolation(t, rt.Space().Violations(), vioErr, "use-after-checkin")
}

func TestValidatorUnreleasedWrite(t *testing.T) {
	rt := NewRuntime(validateCfg())
	var vioErr error
	err := rt.Run(func(s *SPMD) {
		var base pgas.Addr
		if s.Rank() == 0 {
			base = s.AllocCollective(4096, pgas.BlockCyclicDist)
		}
		s.Barrier()
		s.RootExec(func(c *Ctx) {
			// Block 2 of the block-cyclic allocation homes on rank 2 —
			// on the other *node* from the writer (who runs on rank 0,
			// node 0). Intra-node homes are shared memory, so a checkin
			// there lands home-visible immediately; only a cross-node
			// home keeps the checked-in bytes dirty in the writer's
			// cache, which is what makes the read below unordered.
			cell := base + 1024
			// Writer child: commits a write, then keeps computing so its
			// rank runs no release fence before the reader looks. Under
			// WriteBackLazy the fork-time release is deferred, so nothing
			// homes the write for remote readers.
			a := c.Fork(func(c *Ctx) {
				w, err := c.Checkout(cell, 8, pgas.Write)
				if err != nil {
					t.Errorf("writer checkout: %v", err)
					return
				}
				binary.LittleEndian.PutUint64(w, 42)
				c.Checkin(cell, 8, pgas.Write)
				c.Charge(300 * sim.Microsecond)
			})
			// Reader child: forked by the stolen continuation on another
			// rank; reads the writer's bytes with no intervening
			// release->acquire chain — the lost-update family of races.
			b := c.Fork(func(c *Ctx) {
				c.Charge(50 * sim.Microsecond)
				if _, err := c.Checkout(cell, 8, pgas.Read); err != nil {
					vioErr = err
					return
				}
				c.Checkin(cell, 8, pgas.Read)
			})
			c.Join(b)
			c.Join(a)
		})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	v := checkViolation(t, rt.Space().Violations(), vioErr, "unreleased-write")
	if v.Rank == v.OtherRank {
		t.Fatalf("unreleased-write between tasks on the same rank %d should not fire (own cache)", v.Rank)
	}
}

// TestValidatorCleanRuns runs properly synchronized random DAG programs
// with the validator armed: every checkout is disciplined and every
// cross-rank read follows a release->acquire chain, so validation must
// stay silent (a violation would fail the checkout, panicking the DAG's
// MustCheckout) and the results must stay correct.
func TestValidatorCleanRuns(t *testing.T) {
	validate := func(cfg *Config) { cfg.Pgas.Validate = true }
	for ci, dc := range dagConfigs {
		t.Run(dc.name, func(t *testing.T) {
			if !runRandomDAG(t, regressionSeed, ci, validate) {
				t.Fatalf("validated run of seed %d (%v) produced wrong cell values", regressionSeed, dc.pol)
			}
		})
	}
}

// TestValidatorOffZeroAllocs pins the validator-off hot path: a warm
// read-hit checkout/checkin pair allocates nothing on the host, so leaving
// the validator off costs only its nil checks.
func TestValidatorOffZeroAllocs(t *testing.T) {
	cfg := validateCfg()
	cfg.Ranks, cfg.CoresPerNode = 2, 1 // two nodes: block 1 is remote to rank 0
	cfg.Pgas.Validate = false
	rt := NewRuntime(cfg)
	var allocs float64
	err := rt.Run(func(s *SPMD) {
		var base pgas.Addr
		if s.Rank() == 0 {
			base = s.AllocCollective(4096, pgas.BlockCyclicDist)
		}
		s.Barrier()
		if s.Rank() != 0 {
			return
		}
		// Block 1 of the block-cyclic array is homed on rank 1 — a
		// different node, so rank 0 reaches it through the cache path.
		addr := base + 512
		l := s.Local()
		touch := func() {
			v, err := l.Checkout(addr, 64, pgas.Read)
			if err != nil || len(v) != 64 {
				t.Errorf("checkout: %v (%d bytes)", err, len(v))
			}
			if err := l.Checkin(addr, 64, pgas.Read); err != nil {
				t.Errorf("checkin: %v", err)
			}
		}
		touch() // warm: fetch the sub-block, fill the view/piece pools
		allocs = testing.AllocsPerRun(100, touch)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if allocs != 0 {
		t.Fatalf("validator-off warm checkout/checkin allocates %.1f objects per op, want 0", allocs)
	}
}

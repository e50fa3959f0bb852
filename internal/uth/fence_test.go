package uth

import (
	"fmt"
	"testing"

	"ityr/internal/pgas"
	"ityr/internal/sim"
)

// orderHooks records the exact fence sequence with rank annotations.
type orderHooks struct {
	events []string
	nextID int
}

func (h *orderHooks) rec(s string) { h.events = append(h.events, s) }

func (h *orderHooks) Poll(int)             {}
func (h *orderHooks) PollPending(int) bool { return false }
func (h *orderHooks) OnFork(rank int) pgas.ReleaseHandler {
	h.nextID++
	h.rec(fmt.Sprintf("release1@%d#%d", rank, h.nextID))
	return pgas.ReleaseHandler{Rank: rank, Epoch: uint64(h.nextID), Needed: true}
}
func (h *orderHooks) OnSteal(rank int, handler pgas.ReleaseHandler) {
	h.rec(fmt.Sprintf("acquire2@%d#%d", rank, handler.Epoch))
}
func (h *orderHooks) OnSuspend(rank int)         { h.rec(fmt.Sprintf("release3@%d", rank)) }
func (h *orderHooks) OnChildStolenDone(rank int) { h.rec(fmt.Sprintf("release2@%d", rank)) }
func (h *orderHooks) OnMigrateArrive(rank int)   { h.rec(fmt.Sprintf("acquire1@%d", rank)) }

// TestForcedStealFenceSequence builds a schedule where the steal is
// certain — a two-rank region whose root forks one long child — and checks
// the Fig. 5 fence placement end to end:
//
//  1. Release #1 on the victim at the fork.
//  2. Acquire #2 on the thief with that same handler.
//  3. Release #2 on the rank where the child completes (parent stolen).
//  4. Acquire #1 when the parent, blocked at join, migrates to the child's
//     rank.
func TestForcedStealFenceSequence(t *testing.T) {
	h := &orderHooks{}
	s := runRegion2(t, 2, h, func(tb *TB) {
		th := tb.Fork(func(tb *TB) {
			tb.Proc().Advance(10 * sim.Millisecond) // long child: steal certain
		})
		tb.Proc().Advance(10 * sim.Microsecond) // runs on the thief
		tb.Join(th)                             // must block and migrate back
	})
	if s.Stats.Steals != 1 {
		t.Fatalf("steals = %d, want exactly 1 (events: %v)", s.Stats.Steals, h.events)
	}
	// Filter the events of interest in order.
	var seq []string
	for _, e := range h.events {
		switch e[:8] {
		case "release1", "acquire2", "release2", "acquire1":
			seq = append(seq, e[:8])
		case "release3":
			seq = append(seq, e[:8])
		}
	}
	want := []string{
		"release1", // victim's fork (rank 0)
		"acquire2", // thief takes the continuation (rank 1)
		"release3", // parent blocks at join on rank 1
		"release2", // child completes on rank 0, parent stolen
		"acquire1", // parent migrates to rank 0
	}
	// The final region-exit release/acquire pairs follow; check the prefix.
	if len(seq) < len(want) {
		t.Fatalf("sequence too short: %v", seq)
	}
	for i, w := range want {
		if seq[i] != w {
			t.Fatalf("fence %d = %s, want %s (full: %v)", i, seq[i], w, seq)
		}
	}
	// The handler passed to Acquire #2 must be the one Release #1 produced.
	var rel1, acq2 string
	for _, e := range h.events {
		if rel1 == "" && e[:8] == "release1" {
			rel1 = e
		}
		if acq2 == "" && e[:8] == "acquire2" {
			acq2 = e
		}
	}
	if rel1 != "release1@0#1" || acq2 != "acquire2@1#1" {
		t.Fatalf("handler mismatch: %q vs %q", rel1, acq2)
	}
}

// TestNoFencesOnFastPath checks the complementary property: with a single
// rank (no thief can exist), no Release #2/#3 or Acquire #1/#2 fires
// during execution — the work-first principle's fast path (§5.1). Only the
// region-exit release/acquire remains.
func TestNoFencesOnFastPath(t *testing.T) {
	h := &orderHooks{}
	runRegion2(t, 1, h, func(tb *TB) {
		for i := 0; i < 5; i++ {
			th := tb.Fork(func(tb *TB) { tb.Proc().Advance(100) })
			tb.Join(th)
		}
	})
	for _, e := range h.events {
		switch e[:8] {
		case "acquire2", "release2":
			t.Fatalf("unexpected fence %s on single-rank fast path (events %v)", e, h.events)
		}
	}
}

// runRegion2 is runRegion without elapsed-time capture (avoids name clash).
func runRegion2(t *testing.T, nranks int, hooks Hooks, body func(*TB)) *Sched {
	t.Helper()
	s, _ := runRegion(t, nranks, hooks, body)
	return s
}

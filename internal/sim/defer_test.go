package sim

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"
)

// Proc.Defer is specified as the caller's own write, made where each Charge
// had been an Advance. These tests run a writer that charges and defers
// stores into one shared word, beside a sampler process and a callback that
// read the word at every instant, twice: on a banked engine and on a NoBank
// one, where Defer declines every effect and the writer stores it itself.
// The two runs must log the same readings, the same stores at the same
// instants, and every event count but Handoffs.

// storeWord is the effect the writer defers: it sets the shared word and
// logs the instant it did.
type storeWord struct {
	e   *Engine
	dst *int
	v   int
	log *[]string
}

func (s *storeWord) Apply() {
	*s.dst = s.v
	*s.log = append(*s.log, fmt.Sprintf("%d stored %d", s.e.Now(), s.v))
}

// deferRun is one run of a Defer program: what it logged in order, how
// many effects Defer took, and the engine's counts.
type deferRun struct {
	log      []string
	deferred int
	stats    EngineStats
}

// runDeferProgram runs writer, which stores v by calling store(v), beside a
// sampler that reads the word at every instant up to 60 — first in its own
// FIFO position, then again behind everything else queued for the instant
// (Advance(0)) — and a callback that reads it at every instant too. A
// waker wakes the writer at wakeAt when it is positive.
func runDeferProgram(t *testing.T, nobank bool, wakeAt Time, writer func(p *Proc, store func(v int))) deferRun {
	t.Helper()
	const horizon = 60
	e := NewEngine()
	if nobank {
		e.NoBank()
	}
	var run deferRun
	word := 0
	read := func(who string) {
		run.log = append(run.log, fmt.Sprintf("%d %s read %d", e.Now(), who, word))
	}
	w := e.Spawn("writer", func(p *Proc) {
		writer(p, func(v int) {
			fx := &storeWord{e: e, dst: &word, v: v, log: &run.log}
			if p.Defer(fx) {
				run.deferred++
			} else {
				fx.Apply()
			}
		})
	})
	if wakeAt > 0 {
		e.Spawn("waker", func(p *Proc) {
			p.Advance(wakeAt)
			w.Wake()
			read("waker")
		})
	}
	e.Spawn("sampler", func(p *Proc) {
		for p.Now() <= horizon {
			read("sampler")
			p.Advance(0)
			read("sampler behind")
			p.Advance(1)
		}
	})
	var tick func()
	tick = func() {
		read("callback")
		if e.Now() < horizon {
			e.After(1, tick)
		}
	}
	e.At(0, tick)
	if end := underWatchdog(t, func() {
		if err := e.Run(); err != nil {
			t.Error(err)
		}
	}); !end.returned {
		t.Fatalf("Run ended %+v", end)
	}
	run.stats = e.Stats()
	return run
}

func TestDeferMatchesNoBank(t *testing.T) {
	cases := []struct {
		name     string
		wakeAt   Time
		deferred int // effects the banked run's Defer must take
		writer   func(p *Proc, store func(v int))
	}{
		{"between two charges", 0, 4, func(p *Proc, store func(int)) {
			p.Charge(7)
			store(1)
			p.Charge(5)
			store(2)
			store(3)
			p.Charge(9)
			p.Sync()
			store(4) // no bank: at once
			p.Charge(3)
			store(5)
			p.Advance(4) // takes the bank: 5 lands before this sleep
		}},
		{"bank of one sleep", 0, 2, func(p *Proc, store func(int)) {
			p.Charge(10)
			store(1)
			p.Sync()
			p.Charge(6)
			store(2) // the exit takes this bank
		}},
		{"before a park, no permit", 30, 1, func(p *Proc, store func(int)) {
			p.Charge(10)
			p.Charge(5)
			store(1)
			p.Park()
			store(2)
		}},
		{"before a park, woken during the bank", 3, 1, func(p *Proc, store func(int)) {
			p.Charge(10)
			p.Charge(5)
			store(1)
			p.Park()
			store(2)
		}},
		{"before a park, woken as the bank ends", 15, 1, func(p *Proc, store func(int)) {
			p.Charge(10)
			p.Charge(5)
			store(1)
			p.Park()
			store(2)
		}},
		{"no bank", 0, 0, func(p *Proc, store func(int)) {
			store(1)
			p.Advance(5)
			store(2)
			p.Charge(0) // an Advance: it banks nothing
			store(3)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			banked := runDeferProgram(t, false, c.wakeAt, c.writer)
			unbanked := runDeferProgram(t, true, c.wakeAt, c.writer)
			if unbanked.deferred != 0 {
				t.Fatalf("Defer took %d effects under NoBank, want none", unbanked.deferred)
			}
			if banked.deferred != c.deferred {
				t.Fatalf("Defer took %d effects, want %d", banked.deferred, c.deferred)
			}
			if !reflect.DeepEqual(banked.log, unbanked.log) {
				for i := range min(len(banked.log), len(unbanked.log)) {
					if banked.log[i] != unbanked.log[i] {
						t.Fatalf("entry %d: banked run logged %q, unbanked %q", i, banked.log[i], unbanked.log[i])
					}
				}
				t.Fatalf("banked run logged %d entries, unbanked %d", len(banked.log), len(unbanked.log))
			}
			b, u := banked.stats, unbanked.stats
			if b.Handoffs > u.Handoffs {
				t.Errorf("banked run took %d handoffs, unbanked %d", b.Handoffs, u.Handoffs)
			}
			b.Handoffs, u.Handoffs = 0, 0
			if b != u {
				t.Errorf("banked run counted %+v, unbanked %+v", b, u)
			}
		})
	}
}

// TestCarrierStaysInItsSizeClass: a carrier is made per coroutine. Padded
// to 64 bytes it measured 4% slower on a 4,096-rank fork-join
// (EXPERIMENTS.md, "Banked charges"), so deferred effects live on its
// charge list, not on the carrier itself.
func TestCarrierStaysInItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(carrier{}); size > 32 {
		t.Fatalf("carrier is %d bytes, want at most 32", size)
	}
}

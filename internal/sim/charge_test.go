package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// Proc.Charge is specified as Advance for code that touches nothing shared
// before its next kernel entry. TestChargeMatchesAdvance runs seeded random
// programs that keep to that rule twice — charging with Charge, then with
// Advance — and requires the same observations from both: what every
// process read from its own clock, everything done to shared state (which
// each process does only after a kernel entry or Sync, so its order is the
// order the kernel popped the events in), the final clock and every event
// count but Handoffs, which the Charge run may only lower.

// chargeResult is everything the two runs must agree on, and Handoffs.
type chargeResult struct {
	shared []string            // shared-state actions and callbacks, in order
	own    map[string][]string // each process's readings of its own clock
	now    Time
	stats  EngineStats
}

// runChargeProgram builds the program of the given seed on a fresh engine
// and runs it, charging private time with charge. Workers run a random
// script of charges, Advances, Syncs that read and bump a shared counter,
// Wakes, ScheduleWakes, callbacks and spawns; parkers log every wake-up,
// charge some time of their own and read the counter, and charge again
// before they park, so a wake may land while a Park replays its bank. Durations come from
// a handful of small values, zero among them, so the processes keep landing
// on the same instant.
func runChargeProgram(t *testing.T, seed int64, charge func(*Proc, Time)) chargeResult {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	durs := []Time{0, 5, 5, 10, 10, 15, 20, 40}
	e := NewEngine()
	res := chargeResult{own: map[string][]string{}}
	counter := 0
	var keys uint64 // ScheduleWake keys, unique for the run
	// note logs p's view of its own clock.
	note := func(p *Proc, what string) {
		res.own[p.Name] = append(res.own[p.Name], fmt.Sprintf("%d %s", p.Now(), what))
	}
	// share logs an action on shared state; p has synced.
	share := func(p *Proc, what string) {
		counter++
		res.shared = append(res.shared, fmt.Sprintf("%d %s %s counter=%d", p.Now(), p.Name, what, counter))
	}
	nWorkers, nParkers := 2+rng.Intn(4), 1+rng.Intn(3)
	parkers := make([]*Proc, nParkers)
	stop := false
	left := nWorkers
	for i := range parkers {
		own := []Time{durs[rng.Intn(len(durs))], durs[1+rng.Intn(len(durs)-1)], durs[rng.Intn(len(durs))]}
		parkers[i] = e.Spawn(fmt.Sprintf("parker%d", i), func(p *Proc) {
			for {
				charge(p, own[2]) // the Park takes it
				p.Park()
				if stop {
					return
				}
				share(p, "woken")
				charge(p, own[0])
				note(p, "charged")
				charge(p, own[1])
				note(p, "charged")
				p.Sync()
				share(p, "read")
			}
		})
	}
	for i := 0; i < nWorkers; i++ {
		script := make([]int, 1+rng.Intn(24))
		for k := range script {
			script[k] = rng.Intn(10)
		}
		ds := make([]Time, len(script))
		for k := range ds {
			ds[k] = durs[rng.Intn(len(durs))]
		}
		targets := make([]int, len(script))
		for k := range targets {
			targets[k] = rng.Intn(nParkers)
		}
		e.Spawn(fmt.Sprintf("worker%d", i), func(p *Proc) {
			for k, op := range script {
				d, q := ds[k], parkers[targets[k]]
				switch op {
				case 0, 1, 2, 3: // the common case: a run of private charges
					charge(p, d)
					note(p, "charged")
				case 4:
					p.Advance(d)
					share(p, "advanced")
				case 5:
					p.Sync()
					share(p, "read")
				case 6:
					q.Wake()
					share(p, "woke "+q.Name)
				case 7:
					keys++
					p.ScheduleWake(q, p.Now()+d, keys)
					share(p, fmt.Sprintf("scheduled a wake of %s in %d", q.Name, d))
				case 8:
					e.After(d, func() {
						res.shared = append(res.shared, fmt.Sprintf("%d callback of %s", e.Now(), p.Name))
					})
					share(p, fmt.Sprintf("scheduled a callback in %d", d))
				case 9:
					e.Spawn(fmt.Sprintf("%s.child%d", p.Name, k), func(c *Proc) {
						share(c, "started")
						charge(c, d)
						note(c, "charged")
					}) // it exits with its charge banked
					share(p, "spawned")
				}
			}
			p.Sync()
			if left--; left == 0 {
				stop = true
				for _, q := range parkers {
					q.Wake()
				}
			}
			share(p, "through")
			charge(p, 5) // exit takes it
		})
	}
	if end := underWatchdog(t, func() {
		if err := e.Run(); err != nil {
			t.Error(err)
		}
	}); !end.returned {
		t.Fatalf("seed %d: Run ended %+v", seed, end)
	}
	res.now, res.stats = e.Now(), e.Stats()
	return res
}

func TestChargeMatchesAdvance(t *testing.T) {
	var banked, unbanked uint64
	for seed := int64(1); seed <= 60; seed++ {
		got := runChargeProgram(t, seed, (*Proc).Charge)
		want := runChargeProgram(t, seed, (*Proc).Advance)
		if !reflect.DeepEqual(got.shared, want.shared) {
			t.Fatalf("seed %d: shared actions differ\nCharge:\n  %s\nAdvance:\n  %s", seed,
				strings.Join(got.shared, "\n  "), strings.Join(want.shared, "\n  "))
		}
		if !reflect.DeepEqual(got.own, want.own) {
			t.Fatalf("seed %d: clock readings differ\nCharge:  %v\nAdvance: %v", seed, got.own, want.own)
		}
		if got.now != want.now {
			t.Errorf("seed %d: final clock %d, the Advance run's %d", seed, got.now, want.now)
		}
		gs, ws := got.stats, want.stats
		banked += gs.Handoffs
		unbanked += ws.Handoffs
		if gs.Handoffs > ws.Handoffs {
			t.Errorf("seed %d: %d handoffs, the Advance run's %d", seed, gs.Handoffs, ws.Handoffs)
		}
		gs.Handoffs, ws.Handoffs = 0, 0
		if gs != ws {
			t.Errorf("seed %d: stats %+v, the Advance run's %+v", seed, gs, ws)
		}
	}
	if banked >= unbanked {
		t.Errorf("%d handoffs in all with Charge, %d with Advance: want fewer", banked, unbanked)
	}
	t.Logf("handoffs over 60 programs: Charge %d, Advance %d", banked, unbanked)
}

// TestChargeBanksUntilSync pins the mechanism: a Charge moves Now and not
// the engine's queue or counters, and Sync takes the bank through the
// queue — another process's event in the middle of it runs at its instant —
// with one handoff out and one back in, however many charges it holds.
func TestChargeBanksUntilSync(t *testing.T) {
	e := NewEngine()
	var log []string
	e.Spawn("other", func(p *Proc) {
		p.Advance(25)
		log = append(log, fmt.Sprintf("other at %d", p.Now()))
	})
	e.Spawn("charger", func(p *Proc) {
		before := e.Stats()
		for i := 0; i < 10; i++ {
			p.Charge(5)
		}
		if p.Now() != 50 || e.Now() != 50 {
			t.Errorf("Now after 10 charges of 5: proc %d, engine %d; want 50", p.Now(), e.Now())
		}
		if e.Stats() != before {
			t.Errorf("charging touched the engine: stats %+v, were %+v", e.Stats(), before)
		}
		p.Sync()
		log = append(log, fmt.Sprintf("charger at %d", p.Now()))
	})
	h0 := e.Stats().Handoffs
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"other at 25", "charger at 50"}; !reflect.DeepEqual(log, want) {
		t.Errorf("log %v, want %v", log, want)
	}
	// The driver hands to charger and other; other's one Advance and
	// charger's Sync each hand to the other process once.
	if h := e.Stats().Handoffs - h0; h != 4 {
		t.Errorf("%d handoffs, want 4", h)
	}
}

// TestNoBankCharges: on an engine told NoBank, Charge is Advance — Now is the
// engine's clock itself after every charge.
func TestNoBankCharges(t *testing.T) {
	e := NewEngine()
	e.NoBank()
	e.Spawn("p", func(p *Proc) {
		p.Charge(7)
		if e.bank != 0 || e.now != 7 {
			t.Errorf("after Charge(7): clock %d, bank %d; want 7 and 0", e.now, e.bank)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTimeScaleDuringReplayPanics: a process replaying a bank was promised
// the instant its Now read, summed at the scale of its charges, so changing
// its scale mid-replay panics, naming it, instead of moving that instant.
func TestTimeScaleDuringReplayPanics(t *testing.T) {
	e := NewEngine()
	slow := e.Spawn("slow", func(p *Proc) {
		p.Charge(10)
		p.Charge(10)
		p.Sync() // a bank of two: replayed, asleep until 10 and then 20
	})
	e.Spawn("other", func(p *Proc) {
		p.Advance(5)
		slow.SetTimeScale(3, 1)
	})
	end := underWatchdog(t, func() { _ = e.Run() })
	msg, _ := end.panicked.(string)
	if want := `sim: SetTimeScale on process "slow" while it replays its bank`; msg != want {
		t.Fatalf("Run ended %+v, want a panic %q", end, want)
	}
}

// TestTimeScaleUnchangedDuringReplay: setting the scale a replaying process
// already has, as Rank.Attach does for a thread handed a rank of its own
// speed, changes nothing: no panic, and the bank ends where Now said.
func TestTimeScaleUnchangedDuringReplay(t *testing.T) {
	for _, sc := range []struct{ num, den, set, end Time }{{0, 0, -1, 20}, {3, 1, 3, 60}} {
		t.Run(fmt.Sprintf("%d/%d", sc.num, sc.den), func(t *testing.T) {
			e := NewEngine()
			var promised, ended Time
			p := e.Spawn("p", func(p *Proc) {
				p.SetTimeScale(sc.num, sc.den)
				p.Charge(10)
				p.Charge(10)
				promised = p.Now()
				p.Sync()
				ended = p.Now()
			})
			e.Spawn("other", func(o *Proc) {
				o.Advance(5)
				p.SetTimeScale(sc.set, sc.den)
			})
			if end := underWatchdog(t, func() {
				if err := e.Run(); err != nil {
					t.Error(err)
				}
			}); !end.returned {
				t.Fatalf("Run ended %+v", end)
			}
			if promised != sc.end || ended != sc.end {
				t.Errorf("Now read %d before the replay and %d after; want %d", promised, ended, sc.end)
			}
		})
	}
}

// TestParkTakesItsBank: a Park holding a bank sleeps it out and parks where
// its last sleep ends, in engine context, so the process is switched in
// once, by its wake: fewer handoffs than a Sync then a Park, here two (the
// waker, dispatching, no longer hands to the parker and back). A wake that
// lands during the replay is a permit, used at the bank's end, where the
// process runs on as it does after a Sync.
func TestParkTakesItsBank(t *testing.T) {
	run := func(sync bool, wakeAt Time) (Time, uint64) {
		e := NewEngine()
		var resumed Time
		p := e.Spawn("parker", func(p *Proc) {
			p.Charge(10)
			p.Charge(10)
			if sync {
				p.Sync()
			}
			p.Park()
			resumed = p.Now()
		})
		e.Spawn("waker", func(o *Proc) {
			o.Advance(5)
			o.Advance(wakeAt - 5)
			p.Wake()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return resumed, e.Stats().Handoffs
	}
	for _, c := range []struct{ wakeAt, saved Time }{{15, 0}, {30, 2}} {
		want := max(c.wakeAt, 20)
		synced, hs := run(true, c.wakeAt)
		parked, hp := run(false, c.wakeAt)
		if synced != want || parked != want {
			t.Errorf("woken at %d: resumed at %d after a Sync, %d without; want %d", c.wakeAt, synced, parked, want)
		}
		if hs-hp != uint64(c.saved) {
			t.Errorf("woken at %d: %d handoffs, a Sync then a Park %d; want %d fewer", c.wakeAt, hp, hs, c.saved)
		}
	}
}

// TestStaleHandlePanics: a blocking call on a process that is not the one
// running — a handle one process kept of another — panics naming both,
// instead of banking time on a process that is parked.
func TestStaleHandlePanics(t *testing.T) {
	calls := []struct {
		call  string
		block func(p *Proc)
	}{
		{"Charge", func(p *Proc) { p.Charge(1) }},
		{"Advance", func(p *Proc) { p.Advance(1) }},
		{"Park", func(p *Proc) { p.Park() }},
		{"AdvanceFunc", func(p *Proc) { p.AdvanceFunc(1, func() (Time, bool) { return 0, true }) }},
	}
	for _, c := range calls {
		t.Run(c.call, func(t *testing.T) {
			e := NewEngine()
			e.Spawn("parent", func(parent *Proc) {
				e.Spawn("child", func(*Proc) { c.block(parent) })
				parent.Park()
			})
			end := underWatchdog(t, func() { _ = e.Run() })
			msg, _ := end.panicked.(string)
			if want := fmt.Sprintf("sim: %s on process %q while process %q runs", c.call, "parent", "child"); !strings.HasPrefix(msg, want) {
				t.Fatalf("Run ended %+v, want a panic starting %q", end, want)
			}
		})
	}
}

// TestChargeSyncZeroAllocs: once a process's carrier has held its longest
// bank, a steady loop of charges and Syncs — each Sync a replay through the
// queue, interleaved with a second process — allocates nothing.
func TestChargeSyncZeroAllocs(t *testing.T) {
	run := func(rounds int) {
		e := NewEngine()
		e.Spawn("other", func(p *Proc) {
			for i := 0; i < rounds; i++ {
				p.Advance(15)
			}
		})
		e.Spawn("charger", func(p *Proc) {
			for i := 0; i < rounds; i++ {
				p.Charge(4)
				p.Charge(6)
				p.Charge(5)
				p.Sync()
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	const extra = 4096
	small := testing.AllocsPerRun(5, func() { run(64) })
	big := testing.AllocsPerRun(5, func() { run(64 + extra) })
	if perRound := (big - small) / extra; perRound > 0.001 {
		t.Fatalf("%.4f allocations per round (small run %.1f, big run %.1f), want 0",
			perRound, small, big)
	}
}

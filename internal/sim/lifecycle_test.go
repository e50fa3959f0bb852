package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// Lifecycle of the carriers a process body runs on: what Run leaves behind,
// how a body's panic or Goexit leaves Run, and what a body sees on a carrier
// another body used before it. Every case runs on the serial engine and on
// four shards, under a watchdog: a kernel that loses track of a coroutine
// hangs rather than fails.

var engineKinds = []struct {
	name string
	mk   func() *Engine
}{
	{"serial", NewEngine},
	{"4 shards", func() *Engine { return NewEngineShards(4, 100) }},
}

// ending says how a function left its goroutine.
type ending struct {
	returned bool
	panicked any // recovered value; nil with !returned means runtime.Goexit
}

// underWatchdog runs fn on a goroutine of its own and reports how it ended,
// failing the test if it has not after two seconds.
func underWatchdog(t *testing.T, fn func()) ending {
	t.Helper()
	var end ending
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { end.panicked = recover() }()
		fn()
		end.returned = true
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("still running after 2 s")
	}
	return end
}

// settledGoroutines returns runtime.NumGoroutine once it has come down to
// want, or its last reading after a second: a shard worker that Run has
// waited for may still be on its way out of the runtime's count.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; n > want && i < 1000; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// spawnFamily spawns, on every shard, a parent that advances, spawns a
// child from inside its body (in a pinned section: Spawn is
// global-phase-only) and outlives it, and a stepped sleeper whose body
// returns straight after its last step. It returns the number of processes
// that will have run; ran counts them from several shards' rounds at once.
func spawnFamily(e *Engine, ran *atomic.Int32) int {
	for s := 0; s < e.Shards(); s++ {
		s := s
		e.SpawnOn(s, fmt.Sprintf("stepper%d", s), func(p *Proc) {
			steps := 0
			p.AdvanceFunc(3, func() (Time, bool) {
				if steps++; steps < 40 {
					return 3, false
				}
				ran.Add(1)
				return 0, true
			})
		})
		e.SpawnOn(s, fmt.Sprintf("parent%d", s), func(p *Proc) {
			p.Advance(Time(10 + s))
			p.PinGlobal()
			e.Spawn("child", func(c *Proc) {
				c.Advance(5)
				ran.Add(1)
			})
			p.UnpinGlobal()
			p.Advance(100)
			ran.Add(1)
		})
	}
	return 3 * e.Shards()
}

func TestRunLeavesNoGoroutines(t *testing.T) {
	for _, k := range engineKinds {
		t.Run(k.name, func(t *testing.T) {
			end := underWatchdog(t, func() {
				before := runtime.NumGoroutine()
				e := k.mk()
				runs := 1
				if e.Shards() == 1 {
					runs = 2 // a serial engine may be run again
				}
				for r := 0; r < runs; r++ {
					var ran atomic.Int32
					want := spawnFamily(e, &ran)
					if err := e.Run(); err != nil {
						t.Errorf("run %d: %v", r, err)
					}
					if got := int(ran.Load()); got != want {
						t.Errorf("run %d: %d processes finished, want %d", r, got, want)
					}
					if after := settledGoroutines(before); after != before {
						t.Errorf("run %d: %d goroutines after Run, %d before", r, after, before)
					}
				}
			})
			if !end.returned {
				t.Fatalf("ended %+v", end)
			}
		})
	}
}

// spawnBystanders gives every shard a process that is suspended mid-body,
// with more to do, whenever the process under test ends the run at t=50.
func spawnBystanders(e *Engine) {
	for s := 0; s < e.Shards(); s++ {
		e.SpawnOn(s, "bystander", func(p *Proc) {
			for i := 0; i < 20; i++ {
				p.Advance(7)
			}
		})
	}
}

// Where a body ends the run: in a parallel round on a worker's trampoline
// (the serial engine has only the second kind), or in a global phase on the
// coordinator's.
type bodyPhase struct {
	name   string
	pinned bool
}

var bodyPhases = []bodyPhase{{"unpinned", false}, {"pinned", true}}

func TestBodyPanicReachesRunCaller(t *testing.T) {
	type custom struct{ code int }
	// The first row panics in an AdvanceFunc step instead: in engine
	// context, on the stack of the bystander (or driver) that popped the
	// resume at t=50.
	const inStep = "pinned step"
	for _, k := range engineKinds {
		for _, ph := range append([]bodyPhase{{inStep, true}}, bodyPhases...) {
			t.Run(k.name+"/"+ph.name, func(t *testing.T) {
				e := k.mk()
				spawnBystanders(e)
				e.SpawnOn(e.Shards()-1, "bad", func(p *Proc) {
					if ph.name == inStep {
						p.PinGlobal()
						p.AdvanceFunc(50, func() (Time, bool) { panic(custom{42}) })
					}
					p.Advance(50)
					if ph.pinned {
						p.PinGlobal()
					}
					panic(custom{42})
				})
				end := underWatchdog(t, func() { _ = e.Run() })
				if end.returned || end.panicked != (custom{42}) {
					t.Fatalf("Run ended %+v, want panic %+v", end, custom{42})
				}
			})
		}
	}
}

func TestBodyGoexitDoesNotHangRun(t *testing.T) {
	for _, k := range engineKinds {
		for _, ph := range bodyPhases {
			t.Run(k.name+"/"+ph.name, func(t *testing.T) {
				e := k.mk()
				spawnBystanders(e)
				e.SpawnOn(e.Shards()-1, "quitter", func(p *Proc) {
					p.Advance(50)
					if ph.pinned {
						p.PinGlobal()
					}
					runtime.Goexit() // what t.Fatal does in a body
				})
				end := underWatchdog(t, func() { _ = e.Run() })
				if end.returned || end.panicked != nil {
					t.Fatalf("Run ended %+v, want Goexit on its caller", end)
				}
			})
		}
	}
}

func TestDeadlockNamesParkedProcesses(t *testing.T) {
	for _, k := range engineKinds {
		t.Run(k.name, func(t *testing.T) {
			e := k.mk()
			last := e.Shards() - 1
			e.SpawnOn(last, "zed", func(p *Proc) { p.Park() })
			e.SpawnOn(0, "finisher", func(p *Proc) { p.Advance(30) })
			e.SpawnOn(0, "abe", func(p *Proc) {
				p.Advance(10)
				p.Park()
			})
			var err error
			if end := underWatchdog(t, func() { err = e.Run() }); !end.returned {
				t.Fatalf("Run ended %+v", end)
			}
			de, ok := err.(*DeadlockError)
			if !ok {
				t.Fatalf("Run = %v, want *DeadlockError", err)
			}
			if want := []string{"abe(parked)", "zed(parked)"}; !reflect.DeepEqual(de.Parked, want) {
				t.Errorf("Parked = %v, want %v", de.Parked, want)
			}
			const msg = "sim: deadlock: 2 process(es) parked with no pending events: [abe(parked) zed(parked)]"
			if de.Error() != msg {
				t.Errorf("Error() = %q, want %q", de.Error(), msg)
			}
		})
	}
}

// TestIdentityOnReusedCarrier runs three bodies one after another on one
// carrier — each spawns the next as it ends — and each must see itself, not
// an earlier tenant, as its argument and as Engine.Current.
func TestIdentityOnReusedCarrier(t *testing.T) {
	for _, k := range engineKinds {
		t.Run(k.name, func(t *testing.T) {
			e := k.mk()
			var procs [3]*Proc
			var cars [3]*carrier
			var spawn func(i int)
			spawn = func(i int) {
				procs[i] = e.SpawnOn(e.Shards()-1, fmt.Sprintf("tenant%d", i), func(p *Proc) {
					cars[i] = p.car
					// Engine.Current is the serial kernel's: during a
					// parallel round a sharded engine has none.
					check := func(when string, current *Proc) {
						if p != procs[i] || p.Name != procs[i].Name || p.car.proc != p || e.Current() != current {
							t.Errorf("tenant%d %s: body got %q, carrier runs %v, Current() %v",
								i, when, p.Name, p.car.proc, e.Current())
						}
					}
					inRound := p
					if e.Shards() > 1 {
						inRound = nil
					}
					check("at start", inRound)
					p.Advance(0) // through the queue and back to itself
					check("after a yield", inRound)
					p.PinGlobal() // Spawn is global-phase-only
					check("pinned", p)
					if i+1 < len(procs) {
						spawn(i + 1)
					}
					p.UnpinGlobal()
				})
			}
			spawn(0)
			if end := underWatchdog(t, func() {
				if err := e.Run(); err != nil {
					t.Error(err)
				}
			}); !end.returned {
				t.Fatalf("Run ended %+v", end)
			}
			if cars[0] == nil || cars[1] != cars[0] || cars[2] != cars[0] {
				t.Errorf("carriers %p %p %p: the three bodies did not share one", cars[0], cars[1], cars[2])
			}
			for i, p := range procs {
				if p == nil || !p.dead || p.car != nil {
					t.Errorf("tenant%d: %+v after Run, want dead and off its carrier", i, p)
				}
			}
		})
	}
}

package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// Lifecycle of the carriers a process body runs on: what Run leaves behind,
// how a body's panic or Goexit leaves Run, and what a body sees on a carrier
// another body used before it. Every case runs under a watchdog: a kernel
// that loses track of a coroutine hangs rather than fails.

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
// want, or its last reading after a second.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; n > want && i < 1000; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// spawnFamily spawns a parent that advances, spawns a child from inside its
// body and outlives it, and a stepped sleeper whose body returns straight
// after its last step: familySize processes, which ran counts as they finish.
func spawnFamily(e *Engine, ran *int) {
	e.Spawn("stepper", func(p *Proc) {
		steps := 0
		p.AdvanceFunc(3, func() (Time, bool) {
			if steps++; steps < 40 {
				return 3, false
			}
			*ran++
			return 0, true
		})
	})
	e.Spawn("parent", func(p *Proc) {
		p.Advance(10)
		e.Spawn("child", func(c *Proc) {
			c.Advance(5)
			*ran++
		})
		p.Advance(100)
		*ran++
	})
}

const familySize = 3

func TestRunLeavesNoGoroutines(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		end := underWatchdog(t, func() {
			before := runtime.NumGoroutine()
			e := NewEngine()
			for r := 0; r < 2; r++ { // an engine may be run again
				ran := 0
				spawnFamily(e, &ran)
				if err := e.Run(); err != nil {
					t.Errorf("run %d: %v", r, err)
				}
				if ran != familySize {
					t.Errorf("run %d: %d processes finished, want %d", r, ran, familySize)
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

// spawnBystander spawns a process that is suspended mid-body, with more to
// do, whenever the process under test ends the run at t=50.
func spawnBystander(e *Engine) {
	e.Spawn("bystander", func(p *Proc) {
		for i := 0; i < 20; i++ {
			p.Advance(7)
		}
	})
}

func TestBodyPanicReachesRunCaller(t *testing.T) {
	type custom struct{ code int }
	// The step row panics in an AdvanceFunc step: in engine context, on the
	// stack of the bystander (or driver) that popped the resume at t=50.
	for _, where := range []string{"body", "step"} {
		t.Run("serial/"+where, func(t *testing.T) {
			e := NewEngine()
			spawnBystander(e)
			e.Spawn("bad", func(p *Proc) {
				if where == "step" {
					p.AdvanceFunc(50, func() (Time, bool) { panic(custom{42}) })
				}
				p.Advance(50)
				panic(custom{42})
			})
			end := underWatchdog(t, func() { _ = e.Run() })
			if end.returned || end.panicked != (custom{42}) {
				t.Fatalf("Run ended %+v, want panic %+v", end, custom{42})
			}
		})
	}
}

func TestBodyGoexitDoesNotHangRun(t *testing.T) {
	e := NewEngine()
	spawnBystander(e)
	e.Spawn("quitter", func(p *Proc) {
		p.Advance(50)
		runtime.Goexit() // what t.Fatal does in a body
	})
	end := underWatchdog(t, func() { _ = e.Run() })
	if end.returned || end.panicked != nil {
		t.Fatalf("Run ended %+v, want Goexit on its caller", end)
	}
}

func TestDeadlockNamesParkedProcesses(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		e := NewEngine()
		e.Spawn("zed", func(p *Proc) { p.Park() })
		e.Spawn("finisher", func(p *Proc) { p.Advance(30) })
		e.Spawn("abe", func(p *Proc) {
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

// TestIdentityOnReusedCarrier runs three bodies one after another on one
// carrier — each spawns the next as it ends — and each must see itself, not
// an earlier tenant, as its argument and as Engine.Current.
func TestIdentityOnReusedCarrier(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		e := NewEngine()
		var procs [3]*Proc
		var cars [3]*carrier
		var spawn func(i int)
		spawn = func(i int) {
			procs[i] = e.Spawn(fmt.Sprintf("tenant%d", i), func(p *Proc) {
				cars[i] = p.car
				check := func(when string) {
					if p != procs[i] || p.Name != procs[i].Name || p.car.proc != p || e.Current() != p {
						t.Errorf("tenant%d %s: body got %q, carrier runs %v, Current() %v",
							i, when, p.Name, p.car.proc, e.Current())
					}
				}
				check("at start")
				p.Advance(0) // through the queue and back to itself
				check("after a yield")
				if i+1 < len(procs) {
					spawn(i + 1)
				}
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

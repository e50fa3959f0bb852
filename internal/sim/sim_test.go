package sim

import (
	"testing"
)

func TestClockAdvance(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Spawn("p", func(p *Proc) {
		p.Advance(100)
		p.Advance(250)
		at = p.Now()
	})
	e.Spawn("short", func(p *Proc) { p.Advance(10) }) // the final clock is the last event's
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 350 {
		t.Fatalf("got time %d, want 350", at)
	}
	if e.Now() != 350 {
		t.Fatalf("engine now = %d, want 350", e.Now())
	}
}

func TestZeroAdvanceYields(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Spawn("a", func(p *Proc) {
		order = append(order, 1)
		p.Advance(0)
		order = append(order, 3)
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, 2)
		p.Advance(0)
		order = append(order, 4)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var trace []string
		for _, n := range []string{"x", "y", "z"} {
			name := n
			e.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Advance(10)
					trace = append(trace, name)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != 9 || len(b) != 9 {
		t.Fatalf("trace lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic trace at %d: %v vs %v", i, a, b)
		}
	}
}

func TestParkWake(t *testing.T) {
	e := NewEngine()
	var consumerDone Time
	var producer *Proc
	consumer := e.Spawn("consumer", func(p *Proc) {
		p.Park() // waits for producer
		consumerDone = p.Now()
	})
	producer = e.Spawn("producer", func(p *Proc) {
		p.Advance(500)
		consumer.Wake()
	})
	_ = producer
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if consumerDone != 500 {
		t.Fatalf("consumer resumed at %d, want 500", consumerDone)
	}
}

func TestWakeBeforeParkGrantsPermit(t *testing.T) {
	e := NewEngine()
	var done bool
	var target *Proc
	target = e.Spawn("late-parker", func(p *Proc) {
		p.Advance(100) // the wake happens while we are advancing
		p.Park()       // must consume the stored permit, not block
		done = true
	})
	e.Spawn("early-waker", func(p *Proc) {
		p.Advance(10)
		target.Wake()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("parker never resumed despite early wake")
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	e.Spawn("stuck", func(p *Proc) {
		p.Park() // nobody ever wakes us
	})
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("got error %v, want *DeadlockError", err)
	}
	if len(de.Parked) != 1 || de.Parked[0] != "stuck(parked)" {
		t.Fatalf("parked = %v, want [stuck]", de.Parked)
	}
}

func TestAtCallbackOrdering(t *testing.T) {
	e := NewEngine()
	var trace []Time
	e.At(50, func() { trace = append(trace, 50) })
	e.At(20, func() { trace = append(trace, 20) })
	e.At(20, func() { trace = append(trace, 21) }) // same instant: FIFO
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(trace) != 3 || trace[0] != 20 || trace[1] != 21 || trace[2] != 50 {
		t.Fatalf("trace = %v", trace)
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := NewEngine()
	var childTime Time
	e.Spawn("parent", func(p *Proc) {
		p.Advance(30)
		p.Engine().Spawn("child", func(c *Proc) {
			c.Advance(12)
			childTime = c.Now()
		})
		p.Advance(100)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != 42 {
		t.Fatalf("child finished at %d, want 42", childTime)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(50, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestManyProcs(t *testing.T) {
	e := NewEngine()
	const n = 200
	count := 0
	for i := 0; i < n; i++ {
		d := Time(i % 17)
		e.Spawn("w", func(p *Proc) {
			p.Advance(d)
			count++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("count = %d, want %d", count, n)
	}
}

func TestMultipleWakesGrantMultiplePermits(t *testing.T) {
	e := NewEngine()
	var target *Proc
	hits := 0
	target = e.Spawn("t", func(p *Proc) {
		p.Advance(100)
		p.Park()
		hits++
		p.Park()
		hits++
	})
	e.Spawn("w", func(p *Proc) {
		target.Wake()
		target.Wake()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
}

// TestSetTimeScale: a scaled proc's Advance charges num/den times the
// requested duration (straggler modelling), and (0, 0) restores nominal.
func TestSetTimeScale(t *testing.T) {
	e := NewEngine()
	e.Spawn("scaled", func(p *Proc) {
		p.SetTimeScale(10, 1)
		p.Advance(100)
		if p.Now() != 1000 {
			t.Errorf("10x-scaled Advance(100) landed at %d, want 1000", p.Now())
		}
		p.SetTimeScale(3, 2)
		p.Advance(100)
		if p.Now() != 1150 {
			t.Errorf("1.5x-scaled Advance(100) landed at %d, want 1150", p.Now())
		}
		p.SetTimeScale(0, 0)
		p.Advance(100)
		if p.Now() != 1250 {
			t.Errorf("nominal Advance(100) landed at %d, want 1250", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSetTimeScalePanicsOnBadDenominator documents the programmer-error
// contract.
func TestSetTimeScalePanicsOnBadDenominator(t *testing.T) {
	e := NewEngine()
	e.Spawn("bad", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Errorf("SetTimeScale(1, 0) did not panic")
			}
		}()
		p.SetTimeScale(1, 0)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

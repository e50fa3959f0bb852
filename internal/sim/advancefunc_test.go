package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// AdvanceFunc is specified as a loop of Advance and step (its doc comment).
// TestAdvanceFuncMatchesAdvanceLoop runs seeded random programs once through
// AdvanceFunc and once through that loop, written out in sleepLiteral, and
// requires the same execution log, final clock and event counts from both,
// with fewer handoffs from the first.

// sleepLiteral is AdvanceFunc's specification.
func sleepLiteral(p *Proc, d Time, step func() (Time, bool)) {
	for {
		p.Advance(d)
		var done bool
		if d, done = step(); done {
			return
		}
	}
}

// stepOp is what one step of a stepper does besides sleeping on.
type stepOp struct {
	sleep    Time // the sleep that ends in this step
	wake     int  // parker of the group to Wake, -1 for none
	after    Time // delay of a callback to schedule, -1 for none
	rescale  int  // stepper of the group whose time scale to flip, -1 for none
	num, den int64
}

const stepGroups = 4

// stepResult is everything the two executions must agree on, and Handoffs.
type stepResult struct {
	log   []string
	now   Time
	stats EngineStats
}

// runStepProgram builds the program of the given seed on a fresh engine and
// runs it, sleeping with sleep. A group is a set of steppers — each sleeps
// through its script, and whichever finishes last stops the group's parkers
// — and of parkers, which log every wake-up and sleep a little of their own.
// Durations come from a handful of small values, zero among them, so the
// processes keep landing on the same instant.
func runStepProgram(t *testing.T, seed int64, sleep func(*Proc, Time, func() (Time, bool))) stepResult {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	durs := []Time{0, 5, 5, 10, 10, 15, 20, 40}
	e := NewEngine()
	var res stepResult
	record := func(p *Proc, what string) {
		res.log = append(res.log, fmt.Sprintf("%d %s %s", p.Now(), p.Name, what))
	}
	for g := 0; g < stepGroups; g++ {
		nSteppers, nParkers := 2+rng.Intn(4), 1+rng.Intn(3)
		steppers := make([]*Proc, nSteppers)
		parkers := make([]*Proc, nParkers)
		stop := false
		left := nSteppers
		for i := range parkers {
			own := durs[1+rng.Intn(len(durs)-1)]
			parkers[i] = e.Spawn(fmt.Sprintf("parker%d.%d", g, i), func(p *Proc) {
				for {
					p.Park()
					if stop {
						return
					}
					record(p, "woken")
					p.Advance(own)
				}
			})
		}
		for i := range steppers {
			script := make([]stepOp, 1+rng.Intn(12))
			if rng.Intn(5) == 0 {
				script = script[:1] // done on the first call
			}
			for k := range script {
				op := stepOp{sleep: durs[rng.Intn(len(durs))], wake: -1, after: -1, rescale: -1}
				switch rng.Intn(6) {
				case 0, 1:
					op.wake = rng.Intn(nParkers)
				case 2:
					op.after = durs[rng.Intn(len(durs))]
				case 3:
					op.rescale = rng.Intn(nSteppers)
					op.num, op.den = int64(rng.Intn(4)), int64(1+rng.Intn(2)) // num 0: back to nominal
				}
				script[k] = op
			}
			steppers[i] = e.Spawn(fmt.Sprintf("stepper%d.%d", g, i), func(p *Proc) {
				pc := 0
				sleep(p, script[0].sleep, func() (Time, bool) {
					op := script[pc]
					record(p, fmt.Sprintf("step %d", pc))
					if e.Current() != p {
						t.Errorf("%s step %d: Current() = %v", p.Name, pc, e.Current())
					}
					if op.wake >= 0 {
						parkers[op.wake].Wake()
					}
					if op.after >= 0 {
						at := p.Now()
						e.After(op.after, func() {
							res.log = append(res.log, fmt.Sprintf("%d callback of %s at %d", e.Now(), p.Name, at))
						})
					}
					if op.rescale >= 0 {
						steppers[op.rescale].SetTimeScale(op.num, op.den)
					}
					if pc++; pc < len(script) {
						return script[pc].sleep, false
					}
					if left--; left == 0 {
						stop = true
						for _, q := range parkers {
							q.Wake()
						}
					}
					return 0, true
				})
				record(p, "through")
				p.Advance(5)
			})
		}
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

func TestAdvanceFuncMatchesAdvanceLoop(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		var stepped, literal uint64
		for seed := int64(1); seed <= 40; seed++ {
			got := runStepProgram(t, seed, (*Proc).AdvanceFunc)
			want := runStepProgram(t, seed, sleepLiteral)
			if !reflect.DeepEqual(got.log, want.log) {
				t.Fatalf("seed %d: log differs\nAdvanceFunc:\n  %s\nAdvance loop:\n  %s", seed,
					strings.Join(got.log, "\n  "), strings.Join(want.log, "\n  "))
			}
			if got.now != want.now {
				t.Errorf("seed %d: final clock %d, the Advance loop's %d", seed, got.now, want.now)
			}
			gs, ws := got.stats, want.stats
			stepped += gs.Handoffs
			literal += ws.Handoffs
			if gs.Handoffs > ws.Handoffs {
				t.Errorf("seed %d: %d handoffs, the Advance loop's %d", seed, gs.Handoffs, ws.Handoffs)
			}
			gs.Handoffs, ws.Handoffs = 0, 0
			if gs != ws {
				t.Errorf("seed %d: stats %+v, the Advance loop's %+v", seed, gs, ws)
			}
		}
		if stepped >= literal {
			t.Errorf("%d handoffs in all through AdvanceFunc, %d through the Advance loop: want fewer", stepped, literal)
		}
		t.Logf("handoffs over 40 programs: AdvanceFunc %d, Advance loop %d", stepped, literal)
	})
}

// TestStepMustNotBlock pins the contract's one prohibition: a step that
// calls a blocking primitive of its process panics at the call, naming it,
// whether the step runs on a dispatcher's stack (a second process keeps the
// queue busy, so the sleep is queued) or on its own after a fast-path sleep.
func TestStepMustNotBlock(t *testing.T) {
	never := func() (Time, bool) { return 0, true }
	misuses := []struct {
		call  string
		block func(p *Proc)
	}{
		{"Advance", func(p *Proc) { p.Advance(1) }},
		{"Park", func(p *Proc) { p.Park() }},
		{"AdvanceFunc", func(p *Proc) { p.AdvanceFunc(1, never) }},
	}
	for _, mu := range misuses {
		for _, queued := range []bool{true, false} {
			t.Run(fmt.Sprintf("serial/%s/queued=%v", mu.call, queued), func(t *testing.T) {
				e := NewEngine()
				if queued {
					spawnBystander(e)
				}
				e.Spawn("bad", func(p *Proc) {
					p.AdvanceFunc(50, func() (Time, bool) {
						mu.block(p)
						return 0, true
					})
				})
				end := underWatchdog(t, func() { _ = e.Run() })
				msg, _ := end.panicked.(string)
				if want := "sim: " + mu.call + " called from an AdvanceFunc step"; !strings.HasPrefix(msg, want) {
					t.Fatalf("Run ended %+v, want a panic starting %q", end, want)
				}
			})
		}
	}
}

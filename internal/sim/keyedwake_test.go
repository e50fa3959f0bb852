package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// miniBarrier is a test-local barrier over the keyed-wake primitive,
// shaped like the rma layer's: arrival slots, a counter, and a release time
// max(arrivals) + latency with rank-keyed wakes.
type miniBarrier struct {
	n       int
	latency Time
	procs   []*Proc
	slots   []Time
	count   int
}

func newMiniBarrier(n int, latency Time) *miniBarrier {
	return &miniBarrier{
		n:       n,
		latency: latency,
		procs:   make([]*Proc, n),
		slots:   make([]Time, n),
	}
}

func (b *miniBarrier) wait(p *Proc, rank int) {
	b.slots[rank] = p.Now()
	if b.count++; b.count == b.n {
		rel := Time(0)
		for _, t := range b.slots {
			if t > rel {
				rel = t
			}
		}
		rel += b.latency
		b.count = 0
		for r, q := range b.procs {
			p.ScheduleWake(q, rel, uint64(r))
		}
	}
	p.Park()
}

// TestKeyedWakeOrder checks that keyed wakes at one instant fire in key
// order and after FIFO events of the same instant.
func TestKeyedWakeOrder(t *testing.T) {
	eng := NewEngine()
	var order []string
	ps := make([]*Proc, 3)
	for i := range ps {
		name := fmt.Sprintf("w%d", i)
		i := i
		ps[i] = eng.Spawn(name, func(p *Proc) {
			p.Park()
			order = append(order, fmt.Sprintf("wake%d", i))
		})
	}
	eng.Spawn("driver", func(p *Proc) {
		// Schedule keyed wakes in reverse key order; then a FIFO event at
		// the same instant, which must still fire first.
		for i := len(ps) - 1; i >= 0; i-- {
			p.ScheduleWake(ps[i], 100, uint64(i))
		}
		eng.At(100, func() { order = append(order, "fifo") })
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"fifo", "wake0", "wake1", "wake2"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// A keyed wake is queued as the resume of its target (see the slot type).
// The tests below hold that form to the contract of the callback form it
// replaced — an event that called Wake, which queued the resume.

// keyedEntry is one line of the keyed-wake program's log: who ran, and when.
type keyedEntry struct {
	at  Time
	who string
}

// keyedWakeLog is the log of runKeyedWakeProgram in execution order, taken
// from the commit before keyed wakes became resumes.
var keyedWakeLog = []keyedEntry{
	{1080, "callback"}, {1080, "ticker"},
	{1080, "p0 woke"}, {1080, "p0 again"}, {1080, "p1 woke"}, {1080, "p1 again"},
	{1080, "p2 woke"}, {1080, "p2 again"}, {1080, "p3 woke"}, {1080, "p3 again"},
	{1080, "p4 woke"}, {1080, "p4 again"}, {1080, "p5 woke"}, {1080, "p5 again"},
	{1080, "p6 woke"}, {1080, "p6 again"}, {1080, "p7 woke"}, {1080, "p7 again"},
	{1140, "p0 saw the permit"}, {1140, "p2 saw the permit"},
	{1140, "p4 saw the permit"}, {1140, "p6 saw the permit"},
	{1180, "p1 computed"}, {1180, "p1 unparked"}, {1180, "p3 computed"}, {1180, "p3 unparked"},
	{1180, "p5 computed"}, {1180, "p5 unparked"}, {1180, "p7 computed"}, {1180, "p7 unparked"},
}

// runKeyedWakeProgram runs eight ranks through one barrier released at
// t=1080 by rank-keyed wakes, and returns what ran, in order. Three things
// land on the release instant besides the wakes: a callback and a ticker's
// resume, both queued at t=0 under FIFO keys, and each rank's Advance(0)
// right after it wakes. Then every even rank keyed-wakes the odd rank after
// it at a time that one spends in Advance, not parked: the wake must grant
// one permit, which the mate's next Park consumes, and resume nobody.
func runKeyedWakeProgram(t *testing.T) ([]keyedEntry, EngineStats) {
	t.Helper()
	const nproc, latency = 8, Time(1000)
	const release = 10*nproc + latency
	e := NewEngine()
	var log []keyedEntry
	bar := newMiniBarrier(nproc, latency)
	for i := 0; i < nproc; i++ {
		rank := i
		name := fmt.Sprintf("p%d", rank)
		bar.procs[rank] = e.Spawn(name, func(p *Proc) {
			say := func(what string) { log = append(log, keyedEntry{p.Now(), name + " " + what}) }
			p.Advance(Time(10 * (rank + 1)))
			bar.wait(p, rank)
			say("woke")
			p.Advance(0) // a FIFO resume at the release instant: before the next rank's wake
			say("again")
			if rank%2 == 0 {
				mate := bar.procs[rank+1]
				p.ScheduleWake(mate, p.Now()+50, uint64(rank+1))
				p.Advance(60)
				if mate.parked || mate.permits != 1 {
					t.Errorf("%s: after a keyed wake in its Advance, parked=%v permits=%d, want one permit",
						mate.Name, mate.parked, mate.permits)
				}
				say("saw the permit")
				return
			}
			p.Advance(100)
			say("computed")
			p.Park() // the permit: returns at once
			say("unparked")
			if p.permits != 0 {
				t.Errorf("%s: %d permits left after Park, want 0", name, p.permits)
			}
		})
	}
	e.Spawn("ticker", func(p *Proc) {
		p.Advance(release)
		log = append(log, keyedEntry{p.Now(), "ticker"})
	})
	e.At(release, func() { log = append(log, keyedEntry{release, "callback"}) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return log, e.Stats()
}

// TestKeyedWakeContract checks the order keyed wakes run in against the log
// pinned from the callback form: FIFO events of the release instant first,
// then each rank in key order, a woken rank's Advance(0) before the next
// rank's wake, and nothing at all at the instant of a wake that only grants
// a permit.
func TestKeyedWakeContract(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		log, stats := runKeyedWakeProgram(t)
		if !reflect.DeepEqual(log, keyedWakeLog) {
			t.Errorf("log:\n got %v\nwant %v", log, keyedWakeLog)
		}
		// The callback form popped 55 events here and fired 13 callbacks:
		// a callback and a resume for each of the barrier's 8 wakes, a
		// callback for each of the 4 that found their target in Advance.
		if stats.Events != 55-8 || stats.Callbacks != 13-12 {
			t.Errorf("%d events, %d callbacks, want 47 and 1: one event per keyed wake, the At callback",
				stats.Events, stats.Callbacks)
		}
	})
}

// TestKeyedWakeInThePastPanics checks that scheduling a keyed wake before
// the clock is refused.
func TestKeyedWakeInThePastPanics(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		e := NewEngine()
		e.Spawn("late", func(p *Proc) {
			p.Advance(100)
			p.ScheduleWake(p, 50, 0)
		})
		const want = "sim: wake at 50 before now 100"
		if end := underWatchdog(t, func() { _ = e.Run() }); end.panicked != want {
			t.Fatalf("Run ended %+v, want panic %q", end, want)
		}
	})
}

package sim

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

// miniBarrier is a test-local barrier over the keyed-wake primitive,
// shaped like the rma layer's: arrival slots, an atomic counter, and a
// release time max(arrivals) + latency with rank-keyed wakes.
type miniBarrier struct {
	n       int
	latency Time
	procs   []*Proc
	slots   []atomic.Int64
	count   atomic.Int32
}

func newMiniBarrier(n int, latency Time) *miniBarrier {
	return &miniBarrier{
		n:       n,
		latency: latency,
		procs:   make([]*Proc, n),
		slots:   make([]atomic.Int64, n),
	}
}

func (b *miniBarrier) wait(p *Proc, rank int) {
	if b.n == 1 {
		return
	}
	b.slots[rank].Store(p.Now())
	if int(b.count.Add(1)) == b.n {
		rel := Time(0)
		for i := range b.slots {
			if t := b.slots[i].Load(); t > rel {
				rel = t
			}
		}
		rel += b.latency
		b.count.Store(0)
		for r, q := range b.procs {
			p.ScheduleWake(q, rel, uint64(r))
		}
	}
	p.Park()
}

// runLockstep runs nproc processes for steps rounds of deterministic but
// rank-skewed compute separated by barriers, and returns each process's
// observed time after every barrier.
func runLockstep(t *testing.T, eng *Engine, nproc, steps int, latency Time) [][]Time {
	t.Helper()
	times := make([][]Time, nproc)
	bar := newMiniBarrier(nproc, latency)
	shards := eng.Shards()
	for i := 0; i < nproc; i++ {
		rank := i
		p := eng.SpawnOn(rank*shards/nproc, fmt.Sprintf("p%d", rank), func(p *Proc) {
			for s := 0; s < steps; s++ {
				p.Advance(Time(100 * (rank + 1) * (s + 1)))
				bar.wait(p, rank)
				times[rank] = append(times[rank], p.Now())
			}
		})
		bar.procs[rank] = p
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return times
}

// TestShardedMatchesSerial checks that the sharded engine produces exactly
// the serial engine's virtual timeline for a barrier-synchronized
// workload, for several shard counts.
func TestShardedMatchesSerial(t *testing.T) {
	const nproc, steps = 8, 5
	const latency = Time(1200)
	want := runLockstep(t, NewEngine(), nproc, steps, latency)
	for _, shards := range []int{2, 4, 8} {
		eng := NewEngineShards(shards, latency)
		if eng.Shards() != shards {
			t.Fatalf("Shards() = %d, want %d", eng.Shards(), shards)
		}
		got := runLockstep(t, eng, nproc, steps, latency)
		for r := range want {
			for s := range want[r] {
				if got[r][s] != want[r][s] {
					t.Fatalf("shards=%d rank %d step %d: time %d, want %d", shards, r, s, got[r][s], want[r][s])
				}
			}
		}
		st := eng.Stats()
		if st.Rounds == 0 || st.Splits == 0 {
			t.Fatalf("shards=%d: expected parallel rounds to run, stats %+v", shards, st)
		}
	}
}

// TestShardedPinGlobal checks that pinned sections are globally
// serialized: concurrent-looking increments of an unsynchronized counter
// are safe when bracketed by PinGlobal/UnpinGlobal, and the engine
// returns to parallel rounds after the last unpin.
func TestShardedPinGlobal(t *testing.T) {
	const nproc = 8
	const latency = Time(1000)
	eng := NewEngineShards(4, latency)
	bar := newMiniBarrier(nproc, latency)
	var counter int // deliberately unsynchronized; only pinned sections touch it
	order := make([]int, 0, nproc)
	for i := 0; i < nproc; i++ {
		rank := i
		p := eng.SpawnOn(rank/2, fmt.Sprintf("p%d", rank), func(p *Proc) {
			p.Advance(Time(10 * (rank + 1)))
			p.PinGlobal()
			if got, want := p.Now(), Time(10*(rank+1)); got != want {
				t.Errorf("rank %d pinned at %d, want %d", rank, got, want)
			}
			counter++
			order = append(order, rank)
			p.Advance(5)
			p.UnpinGlobal()
			bar.wait(p, rank)
			p.Advance(Time(100 * (rank + 1)))
		})
		bar.procs[rank] = p
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if counter != nproc {
		t.Fatalf("counter = %d, want %d", counter, nproc)
	}
	// Pin resumes carry (time, shard-banded key) ordering: rank order here.
	for i, r := range order {
		if r != i {
			t.Fatalf("pinned sections ran in order %v, want ranks in order", order)
		}
	}
	if eng.Stats().Splits < 2 {
		t.Fatalf("expected a re-split after the last unpin, stats %+v", eng.Stats())
	}
}

// TestShardedDeadlock checks that a process parked forever is reported
// across shard boundaries.
func TestShardedDeadlock(t *testing.T) {
	eng := NewEngineShards(2, 100)
	eng.SpawnOn(0, "ok", func(p *Proc) { p.Advance(50) })
	eng.SpawnOn(1, "stuck", func(p *Proc) { p.Park() })
	err := eng.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if len(de.Parked) != 1 || de.Parked[0] != "stuck(parked)" {
		t.Fatalf("Parked = %v", de.Parked)
	}
}

// TestShardedFinalClock checks Engine.Now after Run reflects the furthest
// shard.
func TestShardedFinalClock(t *testing.T) {
	eng := NewEngineShards(2, 100)
	eng.SpawnOn(0, "short", func(p *Proc) { p.Advance(10) })
	eng.SpawnOn(1, "long", func(p *Proc) { p.Advance(12345) })
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if eng.Now() != 12345 {
		t.Fatalf("Now = %d, want 12345", eng.Now())
	}
}

// TestNewEngineShardsDegenerate checks that one shard yields a plain
// serial engine.
func TestNewEngineShardsDegenerate(t *testing.T) {
	eng := NewEngineShards(1, 0)
	if eng.sh != nil {
		t.Fatal("NewEngineShards(1) should be a serial engine")
	}
	if eng.Shards() != 1 || eng.Lookahead() != 0 {
		t.Fatalf("Shards=%d Lookahead=%d", eng.Shards(), eng.Lookahead())
	}
	done := false
	p := eng.Spawn("p", func(p *Proc) {
		p.PinGlobal() // no-ops on serial engines
		p.UnpinGlobal()
		p.ScheduleWake(eng.Current(), 10, 0) // self-wake via keyed event
		p.Park()
		done = true
	})
	_ = p
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !done || eng.Now() != 10 {
		t.Fatalf("done=%v now=%d", done, eng.Now())
	}
}

// lockstepDigest runs a trivial barrier-paced workload at rank scale and
// folds every rank's post-barrier clock into one FNV-1a digest, so two
// engines can be compared without holding per-rank traces.
func lockstepDigest(t *testing.T, eng *Engine, nproc, steps int, latency Time) uint64 {
	t.Helper()
	digests := make([]uint64, nproc)
	bar := newMiniBarrier(nproc, latency)
	shards := eng.Shards()
	for i := 0; i < nproc; i++ {
		rank := i
		p := eng.SpawnOn(rank*shards/nproc, fmt.Sprintf("p%d", rank), func(p *Proc) {
			h := uint64(14695981039346656037)
			for s := 0; s < steps; s++ {
				p.Advance(Time(7 * (rank%61 + 1) * (s + 1)))
				bar.wait(p, rank)
				h = (h ^ uint64(p.Now())) * 1099511628211
			}
			digests[rank] = h
		})
		bar.procs[rank] = p
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	h := uint64(14695981039346656037)
	for _, d := range digests {
		h = (h ^ d) * 1099511628211
	}
	return h
}

// TestShardedDigestParity16K is the paper-scale smoke test: at 16,384
// ranks the sharded engine's schedule must stay bit-identical to the
// serial engine's. The rank count is the point — it exercises the event
// tie-break key bands (FIFO counters, per-shard banded counters, keyed
// wakes up to rank 16383) far beyond what the small parity tests reach,
// so a band overflow or a key collision at scale fails here instead of in
// a 16K-rank benchmark run.
func TestShardedDigestParity16K(t *testing.T) {
	if testing.Short() {
		t.Skip("16K-rank parity smoke is not a -short test")
	}
	const nproc, steps = 16384, 3
	const latency = Time(1200)
	want := lockstepDigest(t, NewEngine(), nproc, steps, latency)
	eng := NewEngineShards(4, latency)
	got := lockstepDigest(t, eng, nproc, steps, latency)
	if got != want {
		t.Fatalf("16K-rank digest diverged: shards=4 %016x, serial %016x", got, want)
	}
	if st := eng.Stats(); st.Rounds == 0 {
		t.Fatalf("expected parallel rounds at 16K ranks, stats %+v", st)
	}
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
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// A keyed wake is queued as the resume of its target (see the event type).
// The tests below hold that form to the contract of the callback form it
// replaced — an event that called Wake, which queued the resume — on the
// serial engine, on four shards held in the global phase and on four shards
// in parallel rounds: the stepModes that stay in one phase.
func eachKeyedMode(t *testing.T, test func(t *testing.T, m stepMode)) {
	for _, m := range stepModes {
		if m.handover == 0 {
			t.Run(m.name, func(t *testing.T) { test(t, m) })
		}
	}
}

// keyedEntry is one line of the keyed-wake program's log: who ran, when, and
// the shard it belongs to on a four-shard engine.
type keyedEntry struct {
	at    Time
	shard int
	who   string
}

// logOf returns the log an entry belongs in: its shard's in parallel rounds,
// where the shards run concurrently, the engine's one log otherwise.
func (en keyedEntry) logOf(m stepMode) int {
	if m.parallel {
		return en.shard
	}
	return 0
}

// keyedWakeLog is the log of runKeyedWakeProgram in execution order, taken
// from the serial engine of the commit before keyed wakes became resumes.
var keyedWakeLog = []keyedEntry{
	{1080, 0, "callback"}, {1080, 0, "ticker"},
	{1080, 0, "p0 woke"}, {1080, 0, "p0 again"}, {1080, 0, "p1 woke"}, {1080, 0, "p1 again"},
	{1080, 1, "p2 woke"}, {1080, 1, "p2 again"}, {1080, 1, "p3 woke"}, {1080, 1, "p3 again"},
	{1080, 2, "p4 woke"}, {1080, 2, "p4 again"}, {1080, 2, "p5 woke"}, {1080, 2, "p5 again"},
	{1080, 3, "p6 woke"}, {1080, 3, "p6 again"}, {1080, 3, "p7 woke"}, {1080, 3, "p7 again"},
	{1140, 0, "p0 saw the permit"}, {1140, 1, "p2 saw the permit"},
	{1140, 2, "p4 saw the permit"}, {1140, 3, "p6 saw the permit"},
	{1180, 0, "p1 computed"}, {1180, 0, "p1 unparked"}, {1180, 1, "p3 computed"}, {1180, 1, "p3 unparked"},
	{1180, 2, "p5 computed"}, {1180, 2, "p5 unparked"}, {1180, 3, "p7 computed"}, {1180, 3, "p7 unparked"},
}

// runKeyedWakeProgram runs eight ranks, two to a shard, through one barrier
// released at t=1080 by rank-keyed wakes, and returns what ran in order — one
// log for the whole engine, or one per shard in parallel rounds, where the
// shards run concurrently. Three things land on the release instant besides
// the wakes: a callback and a ticker's resume, both queued at t=0 under FIFO
// keys, and each rank's Advance(0) right after it wakes. Then every even
// rank keyed-wakes its odd shard-mate at a time the mate spends in Advance,
// not parked: the wake must grant one permit, which the mate's next Park
// consumes, and resume nobody.
func runKeyedWakeProgram(t *testing.T, m stepMode) ([4][]keyedEntry, EngineStats) {
	t.Helper()
	const nproc, latency = 8, Time(1000)
	const release = 10*nproc + latency
	e := m.mk()
	var logs [4][]keyedEntry
	log := func(at Time, shard int, who string) {
		en := keyedEntry{at, shard, who}
		logs[en.logOf(m)] = append(logs[en.logOf(m)], en)
	}
	spawn := func(shard int, name string, body func(*Proc)) *Proc {
		return e.SpawnOn(shard, name, func(p *Proc) {
			if m.pinned {
				p.PinGlobal()
				defer p.UnpinGlobal()
			}
			body(p)
		})
	}
	bar := newMiniBarrier(nproc, latency)
	for i := 0; i < nproc; i++ {
		rank := i
		name := fmt.Sprintf("p%d", rank)
		bar.procs[rank] = spawn(rank/2, name, func(p *Proc) {
			say := func(what string) { log(p.Now(), rank/2, name+" "+what) }
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
	spawn(0, "ticker", func(p *Proc) {
		p.Advance(release)
		log(p.Now(), 0, "ticker")
	})
	e.At(release, func() { log(release, 0, "callback") })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return logs, e.Stats()
}

// TestKeyedWakeContract checks the order keyed wakes run in against the log
// pinned from the callback form: FIFO events of the release instant first,
// then each rank in key order, a woken rank's Advance(0) before the next
// rank's wake, and nothing at all at the instant of a wake that only grants
// a permit.
func TestKeyedWakeContract(t *testing.T) {
	eachKeyedMode(t, func(t *testing.T, m stepMode) {
		logs, stats := runKeyedWakeProgram(t, m)
		var want [4][]keyedEntry
		for _, en := range keyedWakeLog {
			want[en.logOf(m)] = append(want[en.logOf(m)], en)
		}
		if !reflect.DeepEqual(logs, want) {
			t.Errorf("logs:\n got %v\nwant %v", logs, want)
		}
		if m.parallel && stats.Rounds == 0 {
			t.Errorf("no parallel round ran, stats %+v", stats)
		}
		// The callback form popped 55 events here and fired 13 callbacks:
		// a callback and a resume for each of the barrier's 8 wakes, a
		// callback for each of the 4 that found their target in Advance.
		// (On the serial engine: how shards split the work is theirs.)
		if !m.pinned && !m.parallel && (stats.Events != 55-8 || stats.Callbacks != 13-12) {
			t.Errorf("%d events, %d callbacks, want 47 and 1: one event per keyed wake, the At callback",
				stats.Events, stats.Callbacks)
		}
	})
}

// TestKeyedWakeInThePastPanics checks that scheduling a keyed wake before
// the clock that governs the caller is still refused.
func TestKeyedWakeInThePastPanics(t *testing.T) {
	eachKeyedMode(t, func(t *testing.T, m stepMode) {
		e := m.mk()
		e.SpawnOn(0, "late", func(p *Proc) {
			if m.pinned {
				p.PinGlobal()
			}
			p.Advance(100)
			p.ScheduleWake(p, 50, 0)
		})
		want := "sim: wake at 50 before now 100"
		if m.parallel {
			want = "sim: wake at 50 before shard clock 100"
		}
		if end := underWatchdog(t, func() { _ = e.Run() }); end.panicked != want {
			t.Fatalf("Run ended %+v, want panic %q", end, want)
		}
	})
}

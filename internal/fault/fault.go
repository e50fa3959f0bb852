// Package fault provides seeded, deterministic fault injection for the
// simulated Itoyori runtime.
//
// A Plan describes every fault a run will experience: link-degradation
// windows (latency spikes, jitter, bandwidth collapse), transient one-sided
// operation failures (timeout + retry), stragglers (a rank's compute
// advancing slower than nominal for the whole run), and silent data
// corruption (seeded bit flips in task results). Only the link faults have
// windows of virtual time; the rest hold from start to end. An Injector
// executes a plan.
// Every decision the injector makes — does this op fail, how much jitter
// does this transfer get — is a pure function of the plan's seed and a
// per-rank operation sequence number, never of host state. Because the
// simulation kernel itself is deterministic, the per-rank call order is
// reproducible, so two runs with the same plan produce bit-identical
// virtual schedules (pinned by the seeded-fault golden test in
// internal/bench).
//
// The package deliberately imports only internal/sim. A plan is armed in
// one call, rma.Comm.SetFaults: the RMA layer then adds LinkExtra to the
// cost of every remote transfer and atomic, draws FailRMA per one-sided
// op, and slows each straggler's rank before any process runs. The one
// other reader is internal/core's task replication, which draws
// CorruptTask per protected task execution.
package fault

import "ityr/internal/sim"

// LinkWindow degrades communication on matching rank pairs during a window
// of virtual time.
type LinkWindow struct {
	// From and To bound the active window [From, To). To <= 0 means the
	// window never closes.
	From, To sim.Time
	// Src and Dst filter the origin and target rank; -1 matches any rank.
	Src, Dst int
	// ExtraLatency is added to every matching transfer or atomic.
	ExtraLatency sim.Time
	// Jitter adds a deterministic pseudo-random extra in [0, Jitter].
	Jitter sim.Time
	// SlowFactor multiplies the base wire time when > 1 (bandwidth
	// collapse: 4 means the link runs at a quarter of nominal speed).
	SlowFactor float64
}

// RMAFaults makes one-sided operations (Get/Put/atomics) fail transiently.
// A failed attempt costs the origin a deadline expiry (Timeout) plus a
// capped exponential backoff with seeded jitter, and is then retried by
// the RMA layer. Failures are injected before the operation takes effect,
// so a retried operation applies its memory effect exactly once.
type RMAFaults struct {
	// FailProb is the per-attempt failure probability (0 disables).
	FailProb float64
}

// The retry model of a failed one-sided op, the same under every plan.
const (
	// Timeout is the deadline charged per failed attempt.
	Timeout = 8 * sim.Microsecond
	// MaxAttempts is the fail-stop bound: an op still failing after this
	// many attempts panics (the simulated equivalent of a fatal MPI error).
	MaxAttempts = 64
	// backoffMin and backoffMax bound the exponential backoff.
	backoffMin = 2 * sim.Microsecond
	backoffMax = 64 * sim.Microsecond
)

// Straggler slows one rank's compute for the whole run: every duration the
// rank's processes charge is stretched by Num/Den (10/1 = 10× slower).
type Straggler struct {
	Rank     int
	Num, Den int64
}

// Corruption injects silent data corruption: seeded single-bit flips in
// task results (TaskProb, per protected task execution). Unlike RMAFaults,
// corrupted executions succeed — nothing times out, no error surfaces —
// which is exactly what makes SDC dangerous. Detection and recovery are
// the job of the runtime's selective task replication (internal/core,
// Ctx.Protected).
type Corruption struct {
	// TaskProb is the per-execution probability that a protected task's
	// result is corrupted: one bit of its committed writes (or of its
	// return value when it writes nothing) flips (0 disables).
	TaskProb float64
}

// Plan is a complete, reproducible fault schedule.
type Plan struct {
	Name       string
	Seed       int64
	Links      []LinkWindow
	RMA        RMAFaults
	Stragglers []Straggler
	Corrupt    Corruption
}

// Stats counts injector activity (host-side bookkeeping only).
type Stats struct {
	// Injected is the number of transient failures injected.
	Injected uint64
	// TaskFlips is the number of task-result corruptions injected.
	TaskFlips uint64
}

// Injector executes a Plan for a fixed number of ranks. It must only be
// used from simulation goroutines (the kernel's one-goroutine-at-a-time
// invariant makes its state single-threaded).
type Injector struct {
	plan      Plan
	rmaSeq    []uint64 // per-origin failure-decision counter
	linkSeq   []uint64 // per-origin jitter counter
	taskSeq   []uint64 // per-rank task-corruption decision counter
	taskFlips []uint64 // per-rank injected task flips (audit trail)
	stats     Stats
}

// NewInjector builds an injector for a plan over the given rank count.
func NewInjector(p Plan, ranks int) *Injector {
	return &Injector{
		plan:      p,
		rmaSeq:    make([]uint64, ranks),
		linkSeq:   make([]uint64, ranks),
		taskSeq:   make([]uint64, ranks),
		taskFlips: make([]uint64, ranks),
	}
}

// Plan returns the plan.
func (in *Injector) Plan() Plan { return in.plan }

// Stats returns cumulative injection counters.
func (in *Injector) Stats() Stats { return in.stats }

// TaskFlipsByRank returns each rank's injected task-corruption count.
func (in *Injector) TaskFlipsByRank() []uint64 {
	return append([]uint64(nil), in.taskFlips...)
}

func inWindow(now, from, to sim.Time) bool {
	return now >= from && (to <= 0 || now < to)
}

// hash derives a deterministic 64-bit value from the plan seed, a stream
// discriminator and three inputs. No allocation: it sits on hot paths.
func (in *Injector) hash(stream, a, b, seq uint64) uint64 {
	h := sim.Splitmix(uint64(in.plan.Seed) ^ stream)
	h = sim.Splitmix(h + a)
	h = sim.Splitmix(h + b)
	return sim.Splitmix(h + seq)
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// FailRMA decides whether the next one-sided op from origin to target
// fails transiently. Each call consumes one step of origin's decision
// stream, so the outcome depends only on the seed and the (deterministic)
// per-rank operation order.
func (in *Injector) FailRMA(origin, target int) bool {
	r := &in.plan.RMA
	if r.FailProb <= 0 {
		return false
	}
	seq := in.rmaSeq[origin]
	in.rmaSeq[origin] = seq + 1
	if unit(in.hash(1, uint64(origin), uint64(target), seq)) >= r.FailProb {
		return false
	}
	in.stats.Injected++
	return true
}

// TaskArmed reports whether the plan can corrupt task results.
func (in *Injector) TaskArmed() bool { return in.plan.Corrupt.TaskProb > 0 }

// CorruptTask decides whether rank's next protected task execution is
// corrupted. On ok it returns a 64-bit flip signature the caller maps onto
// the task's writes (one bit of the committed view) or return value. Each
// armed call consumes one step of rank's task stream — including replica
// executions, so two executions of the same task draw independent
// decisions.
func (in *Injector) CorruptTask(rank int) (sig uint64, ok bool) {
	c := &in.plan.Corrupt
	if c.TaskProb <= 0 {
		return 0, false
	}
	seq := in.taskSeq[rank]
	in.taskSeq[rank] = seq + 1
	// Stream 5, not the next free number: 4 was a retired stream's, and
	// renumbering would move every task draw a pinned run makes.
	h := in.hash(5, uint64(rank), 0, seq)
	if unit(h) >= c.TaskProb {
		return 0, false
	}
	in.taskFlips[rank]++
	in.stats.TaskFlips++
	sig = sim.Splitmix(h)
	if sig == 0 { // a zero signature would be an invisible flip
		sig = 1
	}
	return sig, true
}

// Backoff returns the backoff for the attempt-th consecutive failure
// (attempt counts from 1): capped exponential growth from 2µs to 64µs
// plus a deterministic jitter of up to a quarter of the base.
func (in *Injector) Backoff(origin, attempt int) sim.Time {
	d := backoffMin
	for i := 1; i < attempt && d < backoffMax; i++ {
		d *= 2
	}
	if d > backoffMax {
		d = backoffMax
	}
	if jmax := uint64(d / 4); jmax > 0 {
		h := in.hash(2, uint64(origin), uint64(attempt), in.rmaSeq[origin])
		d += sim.Time(h % (jmax + 1))
	}
	return d
}

// LinkExtra returns the extra wire time an op from rank a to rank b
// issued at now suffers under the plan's link windows. base is the op's
// unperturbed wire time (so SlowFactor can scale it without knowing the
// bandwidth model). The RMA layer calls it for every remote transfer and
// atomic while an injector is armed; each matching window with Jitter
// consumes one step of a's jitter stream.
func (in *Injector) LinkExtra(now sim.Time, a, b int, base sim.Time) sim.Time {
	var extra sim.Time
	for i := range in.plan.Links {
		lw := &in.plan.Links[i]
		if !inWindow(now, lw.From, lw.To) {
			continue
		}
		if lw.Src >= 0 && lw.Src != a {
			continue
		}
		if lw.Dst >= 0 && lw.Dst != b {
			continue
		}
		extra += lw.ExtraLatency
		if lw.SlowFactor > 1 {
			extra += sim.Time(float64(base) * (lw.SlowFactor - 1))
		}
		if lw.Jitter > 0 {
			seq := in.linkSeq[a]
			in.linkSeq[a] = seq + 1
			h := in.hash(3, uint64(a), uint64(b), seq)
			extra += sim.Time(h % uint64(lw.Jitter+1))
		}
	}
	return extra
}

// Canned plans: the three fault scenarios `itybench faults` and the fault
// test suite run. Link windows are wide or open-ended so the plans bite at
// every benchmark scale.

// PlanLinkDegraded injects cluster-wide link degradation: an early
// latency-spike window with jitter, then an open-ended bandwidth collapse.
func PlanLinkDegraded(seed int64) Plan {
	return Plan{
		Name: "link-degraded",
		Seed: seed,
		Links: []LinkWindow{
			{From: 50 * sim.Microsecond, To: 2 * sim.Millisecond, Src: -1, Dst: -1,
				ExtraLatency: 4 * sim.Microsecond, Jitter: 2 * sim.Microsecond},
			{From: 2 * sim.Millisecond, To: 0, Src: -1, Dst: -1,
				SlowFactor: 4, Jitter: 500 * sim.Nanosecond},
		},
	}
}

// PlanFlakyRMA makes 2% of one-sided operations time out and retry.
func PlanFlakyRMA(seed int64) Plan {
	return Plan{
		Name: "flaky-rma",
		Seed: seed,
		RMA:  RMAFaults{FailProb: 0.02},
	}
}

// PlanStraggler slows rank 1 to a tenth of nominal speed for the whole
// run and adds latency toward it (its NIC backs up), the scenario the
// scheduler's steal-victim blacklisting exists for.
func PlanStraggler(seed int64) Plan {
	return Plan{
		Name:       "straggler",
		Seed:       seed,
		Stragglers: []Straggler{{Rank: 1, Num: 10, Den: 1}},
		Links: []LinkWindow{
			{From: 0, To: 0, Src: -1, Dst: 1, ExtraLatency: 3 * sim.Microsecond},
		},
	}
}

// PlanSDC corrupts 10% of protected task results for the whole run. 10%
// keeps the chance of a replication protocol exhausting its replay budget
// (consecutive independently-corrupted executions) negligible while
// guaranteeing several flips per app at every benchmark scale.
func PlanSDC(seed int64) Plan {
	return Plan{
		Name:    "sdc-task",
		Seed:    seed,
		Corrupt: Corruption{TaskProb: 0.1},
	}
}

// PlanSDCStorm combines heavy task corruption (50%) with the flaky-RMA
// scenario: every protected task is a coin flip away from a bad result
// while one-sided ops time out and retry underneath. The combined-plan
// recovery test pins that replication still recovers every corruption
// exactly once on top of the retry machinery.
func PlanSDCStorm(seed int64) Plan {
	p := PlanFlakyRMA(seed)
	p.Name = "sdc-storm"
	p.Corrupt = Corruption{TaskProb: 0.5}
	return p
}

// CannedPlans returns the three standard plans, all derived from seed.
func CannedPlans(seed int64) []Plan {
	return []Plan{PlanLinkDegraded(seed), PlanFlakyRMA(seed), PlanStraggler(seed)}
}

package core

// This file is selective task replication: the detection-and-recovery
// half of the silent-data-corruption subsystem (the injection half lives
// in internal/fault, the write-digest primitive in internal/pgas).
//
// A seeded fraction of Protected task segments re-execute, and a cheap
// streaming digest of each execution's committed writes and return value
// is compared. The redundant execution is modelled as shipping the task to
// a replica rank and back — a deque CAS plus a stack transfer, the same
// protocol traffic as a steal — while the re-execution itself runs inline
// on the owning thread (the simulated cost is what matters; the host needs
// no second goroutine). On a digest mismatch the task re-runs with a
// strike counter and fail-stops past maxReplays, the replication policy of
// Reitz & Fohry's SDC protection for fork-join task parallelism.
//
// The selection stream is deliberately independent of the fault injector:
// replication can be armed without any fault plan (the overhead rows of
// the coverage sweep), in which case runs stay digest-identical to
// unprotected runs except for the replica traffic itself.

import (
	"errors"
	"fmt"

	"ityr/internal/sim"
	"ityr/internal/trace"
	"ityr/internal/uth"
)

// ErrSdcReplaysExhausted reports a protected task whose executions kept
// disagreeing past the replay bound (fail-stop).
var ErrSdcReplaysExhausted = errors.New("core: task result corruption persisted past replay bound")

// SDCConfig tunes selective task replication.
type SDCConfig struct {
	// Replicate is the fraction of protected task segments that
	// re-execute for comparison (0 = none, 1 = all).
	Replicate float64
}

// maxReplays is the fail-stop bound on digest-mismatch strikes within one
// protected segment.
// Acceptance needs two consecutive executions to agree, so with
// per-execution corruption probability p a protocol survives a strike
// chain with probability ~(1-(1-p)²) per comparison; 32 makes bound
// exhaustion vanishingly unlikely even under the 50%-corruption storm plan
// while still fail-stopping a genuinely divergent (buggy,
// non-replay-stable) segment quickly.
const maxReplays = 32

// replicator is a run's task-replication state: the selection stream and
// the ledgers MetricsSnapshot reports. Like the scheduler it is driven
// only from simulated processes.
type replicator struct {
	replicate float64 // SDCConfig.Replicate (0 with the defenses off)
	seed      uint64  // of the selection stream

	seq        []uint64 // per-rank selection stream position
	detectedBy []uint64 // per-rank digest mismatches (itytrace table)
	escapedBy  []uint64 // per-rank unprotected corruptions (itytrace table)

	protected uint64 // protected segments selected for replication
	replicas  uint64 // redundant executions performed
	detected  uint64 // digest mismatches caught
	recovered uint64 // protocols that struck at least once and converged
	escaped   uint64 // corruptions applied to unreplicated segments
}

// newReplicator builds the replication state for ranks ranks, its
// selection stream seeded with seed. A nil cfg leaves the defenses off:
// the replicator draws nothing and only counts the corruptions that escape
// to the output (the negative control).
func newReplicator(ranks int, cfg *SDCConfig, seed int64) *replicator {
	p := &replicator{
		seed:       uint64(seed),
		seq:        make([]uint64, ranks),
		detectedBy: make([]uint64, ranks),
		escapedBy:  make([]uint64, ranks),
	}
	if cfg != nil {
		p.replicate = cfg.Replicate
	}
	return p
}

// pick decides whether rank's next protected segment is replicated and,
// if so, on which replica (victim) rank. Each call with replication armed
// consumes one step of rank's selection stream; with Replicate <= 0 it
// consumes nothing, keeping a replication-off run digest-inert.
func (p *replicator) pick(rank int) (victim int, selected bool) {
	if p.replicate <= 0 {
		return rank, false
	}
	seq := p.seq[rank]
	p.seq[rank] = seq + 1
	h := sim.Splitmix(p.seed ^ 0x5DC)
	h = sim.Splitmix(h + uint64(rank))
	h = sim.Splitmix(h + seq)
	if float64(h>>11)/(1<<53) >= p.replicate {
		return rank, false
	}
	victim = rank
	if n := len(p.seq); n > 1 {
		victim = int(sim.Splitmix(h) % uint64(n-1))
		if victim >= rank {
			victim++
		}
	}
	return victim, true
}

// Protected executes fn — a fork-free task segment returning a 64-bit
// result — under the silent-data-corruption protocol. With neither
// defenses nor a task-corrupting plan armed it is exactly fn() (zero
// simulated-time events, digest-pinned). Otherwise a seeded fraction of
// calls (Config.SDC.Replicate) re-execute on a replica rank and compare
// a streaming digest over the segment's committed writes and result,
// re-running on mismatch and fail-stopping past maxReplays; unreplicated
// calls under a corrupting plan may have one bit of their writes (or of
// their result, if they write nothing) flipped — a real escape.
//
// fn must be fork-free and replay-stable: re-executed from the same
// committed state it must produce the same bytes (idempotent overwrites
// and pure results qualify; read-modify-write accumulation does not).
func (c *Ctx) Protected(fn func() uint64) uint64 {
	p := c.rt.repl
	if p == nil {
		return fn()
	}
	rank := c.tb.RankID()
	if victim, selected := p.pick(rank); selected {
		return c.replicate(p, rank, victim, fn)
	}
	// Unreplicated execution: an armed task-corruption stream may corrupt
	// this segment for real. The flip lands in the first view the segment
	// commits, or in the return value if it commits none.
	if inj := c.rt.inj; inj != nil {
		if sig, ok := inj.CorruptTask(rank); ok {
			l := c.Local()
			l.SdcArmFlip(sig)
			ret := fn()
			if !l.SdcTakeFlip() {
				ret ^= 1 << (sig & 63)
			}
			p.escaped++
			p.escapedBy[rank]++
			return ret
		}
	}
	return fn()
}

// replicate runs one selected protected segment on rank me: execute,
// re-execute on the replica, and accept only when two consecutive
// executions agree. Each redundant execution charges the ship-to-replica
// protocol (deque CAS + stack transfer toward the victim, the same cost
// model as a steal) and appears as a KReplica span; each mismatch is a
// KSdcDetect event and a strike, and a protocol still disagreeing past
// maxReplays strikes fail-stops with ErrSdcReplaysExhausted.
func (c *Ctx) replicate(p *replicator, me, victim int, fn func() uint64) uint64 {
	proc, r, rec := c.tb.Proc(), c.rt.comm.Rank(me), c.rt.rec
	p.protected++
	ret, dig := c.digestRun(me, fn)
	execN := int64(1)
	strikes := 0
	for {
		t0 := proc.Now()
		r.ChargeAtomic(victim)
		r.ChargeTransfer(victim, uth.StackBytes)
		execN++
		ret2, dig2 := c.digestRun(me, fn)
		p.replicas++
		rec.Span(me, trace.KReplica, t0, proc.Now()-t0, int64(victim), execN)
		if ret2 == ret && dig2 == dig {
			if strikes > 0 {
				p.recovered++
			}
			return ret2
		}
		strikes++
		p.detected++
		p.detectedBy[me]++
		rec.Instant(me, trace.KSdcDetect, proc.Now(), int64(victim), int64(strikes))
		if strikes > maxReplays {
			panic(fmt.Errorf("%w: rank %d protected segment disagreed %d times",
				ErrSdcReplaysExhausted, me, strikes))
		}
		ret, dig = ret2, dig2
	}
}

// digestRun executes fn once on rank with the PGAS write digest armed and
// returns its result and a digest covering every byte it commits plus the
// result. An execution the armed task-corruption stream corrupts folds
// its flip into the digest instead of touching memory, so the mismatch is
// guaranteed even for segments that read their own output back (e.g.
// re-sorting an in-place-sorted leaf could otherwise reproduce a
// survivable flip bit-for-bit), and the accepted clean pair leaves memory
// exactly right.
func (c *Ctx) digestRun(rank int, fn func() uint64) (ret, dig uint64) {
	var sig uint64
	corrupted := false
	if inj := c.rt.inj; inj != nil {
		sig, corrupted = inj.CorruptTask(rank)
	}
	l := c.Local()
	l.SdcArmDigest()
	ret = fn()
	dig = (l.SdcTakeDigest() ^ ret) * 0x100000001b3
	if corrupted {
		dig ^= sig
	}
	return ret, dig
}

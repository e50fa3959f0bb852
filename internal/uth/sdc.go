package uth

// This file implements selective task replication: the detection-and-
// recovery half of the silent-data-corruption subsystem (the injection
// half lives in internal/fault, the write-digest primitive in
// internal/pgas).
//
// A Protector re-executes a seeded fraction of protected task segments
// and compares a cheap streaming digest of each execution's committed
// writes and return value. The redundant execution is modelled as
// shipping the task to a replica rank and back — a deque CAS plus a
// stack transfer, the same protocol traffic as a steal — while the
// re-execution itself runs inline on the owning thread (the simulated
// cost is what matters; the host needs no second goroutine). On a digest
// mismatch the task re-runs with a strike counter and fail-stops past
// maxReplays, the replication policy of Reitz & Fohry's SDC protection
// for fork-join task parallelism.
//
// The Protector's selection stream is deliberately independent of the
// fault injector: replication can be armed without any fault plan (the
// overhead rows of the coverage sweep), in which case runs stay
// digest-identical to unprotected runs except for the replica traffic
// itself.

import (
	"errors"
	"fmt"

	"ityr/internal/trace"
)

// ErrSdcReplaysExhausted reports a protected task whose executions kept
// disagreeing past the replay bound (fail-stop).
var ErrSdcReplaysExhausted = errors.New("uth: task result corruption persisted past replay bound")

// SDCConfig tunes selective task replication.
type SDCConfig struct {
	// Replicate is the fraction of protected task segments that
	// re-execute for comparison (0 = none, 1 = all).
	Replicate float64
}

// maxReplays is the fail-stop bound on digest-mismatch strikes within one
// protected segment, and the wire checksum's retransmission bound.
// Acceptance needs two consecutive executions to agree, so with
// per-execution corruption probability p a protocol survives a strike
// chain with probability ~(1-(1-p)²) per comparison; 32 makes bound
// exhaustion vanishingly unlikely even under the 50%-corruption storm plan
// while still fail-stopping a genuinely divergent (buggy,
// non-replay-stable) segment quickly.
const maxReplays = 32

// ProtStats aggregates replication activity.
type ProtStats struct {
	Protected uint64 // protected segments selected for replication
	Replicas  uint64 // redundant executions performed
	Detected  uint64 // digest mismatches caught
	Recovered uint64 // protocols that struck at least once and converged
	Escaped   uint64 // corruptions applied to unreplicated segments
}

// Protector implements selective task replication over a scheduler.
// Like the scheduler itself it is driven only from simulated processes.
type Protector struct {
	s         *Sched
	replicate float64 // SDCConfig.Replicate (0 with the defenses off)
	seed      uint64  // of the selection stream

	seq        []uint64 // per-rank selection stream position
	detectedBy []uint64 // per-rank digest mismatches (itytrace table)
	escapedBy  []uint64 // per-rank unprotected corruptions (itytrace table)

	// Stats holds cumulative replication counters.
	Stats ProtStats
}

// NewProtector builds a protector for s whose selection stream is seeded
// with seed. A nil cfg leaves the defenses off: the protector only counts
// the corruptions that escape to the output (the negative control). A
// non-nil cfg arms replication and, on the wire, the end-to-end payload
// checksum with the same replay bound.
func NewProtector(s *Sched, cfg *SDCConfig, seed int64) *Protector {
	n := s.comm.Size()
	p := &Protector{
		s:          s,
		seed:       uint64(seed),
		seq:        make([]uint64, n),
		detectedBy: make([]uint64, n),
		escapedBy:  make([]uint64, n),
	}
	if cfg != nil {
		p.replicate = cfg.Replicate
		s.comm.SetSDCVerify(maxReplays)
	}
	return p
}

// DetectedByRank returns each rank's digest-mismatch count.
func (p *Protector) DetectedByRank() []uint64 {
	return append([]uint64(nil), p.detectedBy...)
}

// EscapedByRank returns each rank's unprotected-corruption count.
func (p *Protector) EscapedByRank() []uint64 {
	return append([]uint64(nil), p.escapedBy...)
}

// NoteEscape records a corruption that was applied to an unreplicated
// segment on rank — a real silent error the run will carry to its output.
func (p *Protector) NoteEscape(rank int) {
	p.Stats.Escaped++
	p.escapedBy[rank]++
}

// splitmix is the splitmix64 step (the golden-gamma increment, then the
// finalizer; the same mix as internal/fault's), the one mixer behind every
// draw this package makes: replica selection (Pick) and steal victims
// (Worker.draw), each on its own seed so neither correlates with the other
// or with fault injection.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Pick decides whether rank's next protected segment is replicated and,
// if so, on which replica (victim) rank. Each call with replication
// armed consumes one step of rank's selection stream; with Replicate <= 0
// it consumes nothing, keeping a replication-off protector digest-inert.
func (p *Protector) Pick(rank int) (victim int, selected bool) {
	if p.replicate <= 0 {
		return rank, false
	}
	seq := p.seq[rank]
	p.seq[rank] = seq + 1
	h := splitmix(p.seed ^ 0x5DC)
	h = splitmix(h + uint64(rank))
	h = splitmix(h + seq)
	if float64(h>>11)/(1<<53) >= p.replicate {
		return rank, false
	}
	victim = rank
	if n := p.s.comm.Size(); n > 1 {
		victim = int(splitmix(h) % uint64(n-1))
		if victim >= rank {
			victim++
		}
	}
	return victim, true
}

// Replicate runs one selected protected segment: execute, re-execute on
// the replica, and accept only when two consecutive executions agree.
// exec runs the segment once and returns (result, digest) — the caller
// arms the PGAS write digest around the user function, so the digest
// covers every byte the segment commits plus its return value. Each
// redundant execution charges the ship-to-replica protocol (deque CAS +
// stack transfer toward the victim, the same cost model as a steal) and
// appears as a KReplica span; each mismatch is a KSdcDetect event and a
// strike, and a protocol still disagreeing past maxReplays strikes
// fail-stops with ErrSdcReplaysExhausted.
func (p *Protector) Replicate(tb *TB, victim int, exec func() (uint64, uint64)) uint64 {
	s := p.s
	me := tb.RankID()
	p.Stats.Protected++
	ret, dig := exec()
	execN := int64(1)
	strikes := 0
	for {
		t0 := tb.th.proc.Now()
		tb.w.rank.ChargeAtomic(victim)
		tb.w.rank.ChargeTransfer(victim, stackBytes)
		execN++
		ret2, dig2 := exec()
		p.Stats.Replicas++
		d := tb.th.proc.Now() - t0
		s.rec.Span(me, trace.KReplica, t0, d, int64(victim), execN)
		if ret2 == ret && dig2 == dig {
			if strikes > 0 {
				p.Stats.Recovered++
			}
			return ret2
		}
		strikes++
		p.Stats.Detected++
		p.detectedBy[me]++
		s.rec.Instant(me, trace.KSdcDetect, tb.th.proc.Now(), int64(victim), int64(strikes))
		if strikes > maxReplays {
			panic(fmt.Errorf("%w: rank %d protected segment disagreed %d times",
				ErrSdcReplaysExhausted, me, strikes))
		}
		ret, dig = ret2, dig2
	}
}

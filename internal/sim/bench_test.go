package sim

import (
	"testing"
)

// BenchmarkSimEngine measures host-side event-kernel throughput in three
// dispatch regimes the repo's benchmark does not drive; the fast-path,
// ping-pong, park/wake and callback regimes are micro-drivers in
// benchmark/layers.go. The first two report events/sec of host wall-clock,
// the wide idle one host ns per event.

// advance-self: Advance(0) in a loop — slow path through the event queue,
// but the popped resume belongs to the yielding process, so the handoff
// coalesces to zero channel operations.
func BenchmarkSimEngineAdvanceSelf(b *testing.B) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(0)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkSimEngineMixed approximates the RMA layer's Advance profile:
// many short advances against a backdrop of occasionally-due events from
// other processes, the workload the fast path is aimed at.
func BenchmarkSimEngineMixed(b *testing.B) {
	e := NewEngine()
	e.Spawn("poller", func(p *Proc) {
		for i := 0; i < b.N/16; i++ {
			p.Advance(1000)
		}
	})
	e.Spawn("issuer", func(p *Proc) {
		for i := 0; i < b.N-b.N/16; i++ {
			p.Advance(50)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkSimEngineWideIdle is the idle loop of a fork-join region on 4,096
// ranks with next to no work: every process sleeps in AdvanceFunc through an
// idle worker's cycle — the 40 ns scheduling tick, a 2,600 ns inter-node
// steal CAS, then a backoff on the ladder 500 ns … 8 µs, capped at 16 µs and
// reset every 47 cycles — in the proportions a forkjoin-4096r run has
// (EXPERIMENTS.md, "Step lanes"). Nearly every event is a step resume.
func BenchmarkSimEngineWideIdle(b *testing.B) {
	const width = 4096
	e := NewEngine()
	steps := b.N/width + 1
	for rank := 0; rank < width; rank++ {
		e.Spawn("idle", func(p *Proc) {
			n, phase, cycle := 0, 0, rank // staggered: ranks do not idle in lockstep
			p.AdvanceFunc(Time(rank%40), func() (Time, bool) {
				if n++; n == steps {
					return 0, true
				}
				switch phase = (phase + 1) % 3; phase {
				case 0:
					return 40, false
				case 1:
					return 2600, false
				}
				cycle++
				return 500 << min(cycle%47, 5), false
			})
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(e.Stats().Events), "ns/event")
}

// BenchmarkSimEngineBarrier is a barrier-paced SPMD loop on 4,096 ranks, the
// shape of a halo-exchange step: every process charges Advance(512) and
// waits at a barrier that releases all ranks with rank-keyed wakes at one
// instant, as the rma layer's does. Half the events are those wakes, half
// the resumes that end the Advances, which wait behind a deep queue.
func BenchmarkSimEngineBarrier(b *testing.B) {
	const width = 4096
	e := NewEngine()
	rounds := b.N/(2*width) + 1
	bar := newMiniBarrier(width, 1200)
	for rank := range bar.procs {
		bar.procs[rank] = e.Spawn("rank", func(p *Proc) {
			for i := 0; i < rounds; i++ {
				p.Advance(512)
				bar.wait(p, rank)
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(e.Stats().Events), "ns/event")
}

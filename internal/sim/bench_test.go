package sim

import (
	"testing"
)

// BenchmarkSimEngine measures host-side event-kernel throughput in two
// dispatch regimes the repo's benchmark does not drive; the fast-path,
// ping-pong, park/wake and callback regimes are micro-drivers in
// benchmark/layers.go. Both report events/sec of host wall-clock.

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

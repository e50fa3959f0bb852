package rma

import (
	"testing"

	"ityr/internal/netmodel"
	"ityr/internal/sim"
)

// BenchmarkRMAOps measures host-side throughput of the one-sided layer —
// how many simulated RMA operations per second of wall-clock the kernel can
// push through — for the two patterns the repo's benchmark does not drive
// (put-flush and fetch-and-add are micro-drivers in benchmark/layers.go).
// Each sub-benchmark reports ops/sec.

func benchRMA(b *testing.B, body func(r *Rank, w *Win, n int)) {
	b.Helper()
	e := sim.NewEngine()
	c := New(e, 2, netmodel.Default(2))
	w := c.NewUniformWin(1 << 16)
	for i := 0; i < 2; i++ {
		r := c.Rank(i)
		e.Spawn("rank", func(p *sim.Proc) {
			r.Attach(p)
			if r.ID() == 0 {
				body(r, w, b.N)
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
}

// get-batch: batches of nonblocking Gets amortizing one Flush — the cache
// fetch pattern.
func BenchmarkRMAOpsGetBatch(b *testing.B) {
	buf := make([]byte, 256)
	benchRMA(b, func(r *Rank, w *Win, n int) {
		for i := 0; i < n; i += 8 {
			for j := 0; j < 8 && i+j < n; j++ {
				w.Get(r, 1, 0, buf)
			}
			r.Flush()
		}
	})
}

// local: self-targeted Puts, the NIC-free fast case.
func BenchmarkRMAOpsLocalPut(b *testing.B) {
	buf := make([]byte, 256)
	benchRMA(b, func(r *Rank, w *Win, n int) {
		for i := 0; i < n; i++ {
			w.Put(r, buf, 0, 0)
		}
		r.Flush()
	})
}

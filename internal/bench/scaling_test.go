package bench

import (
	"fmt"
	"testing"

	"ityr"
)

// BenchmarkScaling runs one row of `itybench scaling` per sub-benchmark,
// workload/ranks, through the row's own run function. It is how a row is
// profiled — no scratch main, the workload itself rather than a micro-driver
// of what one guesses it spends its time on:
//
//	go test ./internal/bench -run '^$' -bench 'Scaling/halo-spmd/4096' -cpuprofile halo.prof
//
// or `make profile BENCH=Scaling/halo-spmd/4096`, which adds `go tool pprof
// -top`.
func BenchmarkScaling(b *testing.B) {
	for _, wl := range scalingWorkloads {
		for _, ranks := range scalingRanks {
			b.Run(fmt.Sprintf("%s/%d", wl.name, ranks), func(b *testing.B) {
				var row Metrics
				for i := 0; i < b.N; i++ {
					row = wl.run(ranks)
				}
				b.ReportMetric(b.Elapsed().Seconds()*1e9/(float64(b.N)*row["events"]), "ns/event")
			})
		}
	}
}

// BenchmarkWorkload runs a benchmark workload's geometry through the figures'
// own run function, so the workload can be profiled without editing the
// benchmark: `make profile BENCH=Workload/cilksort-64r` is the benchmark's
// cilksort-64r (2^20 int32 keys, cutoff 1,024, 64 ranks of 8 a node, Write-Back
// (Lazy), seed 11), set-up and check included.
func BenchmarkWorkload(b *testing.B) {
	b.Run("cilksort-64r", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			figCilksort(1<<20, 1<<10, 64, 8, ityr.WriteBackLazy, 11)
		}
	})
}

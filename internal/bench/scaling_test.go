package bench

import (
	"fmt"
	"testing"
)

// BenchmarkScaling runs one row of `itybench scaling` per sub-benchmark,
// workload/ranks, through the row's own run function. It is how a row is
// profiled — no scratch main, the workload itself rather than a micro-driver
// of what one guesses it spends its time on:
//
//	go test ./internal/bench -run '^$' -bench 'Scaling/halo-spmd/4096' -cpuprofile halo.prof
//
// or `make profile ROW=halo-spmd/4096`, which adds `go tool pprof -top`.
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

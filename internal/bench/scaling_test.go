package bench

import (
	"fmt"
	"testing"

	"ityr"
	"ityr/internal/apps/cilksort"
	"ityr/internal/apps/halo"
	"ityr/internal/apps/uts"
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
// own run functions, so the workload can be profiled without editing the
// benchmark, set-up and check included: `make profile
// BENCH=Workload/cilksort-64r` is the benchmark's cilksort-64r (2^20 int32
// keys, cutoff 1,024, 64 ranks), utsmem-64r builds and traverses T1L' on 64
// ranks, and forkjoin-4096r sorts 2^18 keys in 16 Ki-key leaves on 4,096
// ranks; all of them 8 ranks a node, Write-Back (Lazy), seed 11. halo-4096r
// is 30 steps of 256 cells a rank on 4,096 ranks, 8 a node, the geometry the
// benchmark times (the Scaling/halo-spmd rows run another).
// cilksort-1m-validated is `make validate`'s cilksort leg on the same
// configuration: 2^20 keys, cutoff 256, 8 ranks, checkout validator on.
func BenchmarkWorkload(b *testing.B) {
	validated := runtimeConfig(8, 8, ityr.WriteBackLazy, 11)
	validated.Pgas.Validate = true
	workloads := []struct {
		name string
		run  func()
	}{
		{"cilksort-64r", func() { figCilksort(1<<20, 1<<10, 64, 8, ityr.WriteBackLazy, 11) }},
		{"utsmem-64r", func() { runUTS(runtimeConfig(64, 8, ityr.WriteBackLazy, 11), uts.T1LPrime) }},
		{"forkjoin-4096r", func() { figCilksort(1<<18, 16<<10, 4096, 8, ityr.WriteBackLazy, 11) }},
		{"halo-4096r", func() {
			if _, err := halo.Run(halo.Config{Ranks: 4096, CoresPerNode: 8, CellsPerRank: 256, Steps: 30}); err != nil {
				b.Fatal(err)
			}
		}},
		{"cilksort-1m-validated", func() {
			runCilksort(validated, cilksort.Params{N: 1 << 20, Cutoff: 256, Seed: 11, Dist: ityr.BlockCyclicDist})
		}},
	}
	for _, wl := range workloads {
		b.Run(wl.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				wl.run()
			}
		})
	}
}

package ityr_test

import (
	"io"
	"testing"

	"ityr/internal/bench"
)

// BenchmarkSuite is the host cost of everything `itybench` runs: one
// sub-benchmark per entry of bench.Suites at the Quick scale, through the
// suite's own Run. The results themselves are not read here — they are the
// suite's report, gated as BENCH_<suite>.json. It is also how a suite is
// profiled: `make profile BENCH=Suite/fig11`.
func BenchmarkSuite(b *testing.B) {
	for _, s := range bench.Suites {
		b.Run(s.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Run(io.Discard, bench.Quick); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

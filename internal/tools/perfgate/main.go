// Command perfgate is the deterministic regression gate: it compares a
// freshly generated itoyori-bench/v1 report (`itybench -o
// BENCH_<suite>.current.json <suite>`) against the checked-in baseline
// (BENCH_<suite>.json) and exits nonzero on any drift beyond a small
// tolerance. `make gate-<suite>` is both steps.
//
// Because the simulator is bit-deterministic, every gated number —
// simulated time, RMA round trips and bytes, event and fault counters,
// verdicts — is exactly reproducible on any host, so drift is always a
// code change, never noise. The numbers that are not (wall clock, host
// allocation) are named in the report's "host" list and skipped. The gate
// is two-sided on purpose: a regression fails outright, and an improvement
// beyond the tolerance also fails until the baseline is regenerated (`make
// baseline-<suite>`), so the checked-in numbers always describe the
// current code and the next regression is measured from the right floor.
// The tolerance exists only to absorb intentional micro-churn (a few
// events moved by an unrelated change) without a re-baseline ceremony.
//
// Usage:
//
//	perfgate -baseline BENCH_perf.json -current BENCH_perf.current.json [-tol 0.02]
//
// The suite, scale and config are read from the files; two reports that
// disagree on them are not compared.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ityr/internal/bench"
)

func main() {
	baseline := flag.String("baseline", "BENCH_perf.json", "checked-in baseline report")
	current := flag.String("current", "BENCH_perf.current.json", "freshly generated report to gate")
	tol := flag.Float64("tol", 0.02, "relative tolerance per metric (0.02 = ±2%)")
	flag.Parse()

	base, err := readReport(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfgate:", err)
		os.Exit(1)
	}
	cur, err := readReport(*current)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfgate:", err)
		os.Exit(1)
	}

	findings, moved := compare(base, cur, *tol)
	if len(findings) > 0 {
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, "perfgate:", f)
		}
		fmt.Fprintf(os.Stderr, "perfgate: FAIL (%d finding(s); if the change is intentional, regenerate the baseline with `make baseline-%s` and commit it)\n", len(findings), base.Suite)
		os.Exit(1)
	}
	fmt.Printf("perfgate: OK — %s: %d row(s) within ±%.1f%% of baseline (%s scale); %s\n",
		base.Suite, len(base.Rows), 100**tol, base.Scale, moved)
	if len(base.Host) > 0 {
		fmt.Printf("perfgate: host-dependent, not gated: %s\n", strings.Join(base.Host, ", "))
	}
}

func readReport(path string) (*bench.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep, err := bench.ReadReport(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// Command itybench reproduces the paper's evaluation: it runs the
// experiment behind every figure and table of §6 on the simulated cluster,
// prints the corresponding rows/series with the paper's claims about them as
// 0/1 verdicts, and runs the other gated suites. Every suite returns one
// itoyori-bench/v1 report, which `make check` holds to the checked-in
// BENCH_<suite>.json files.
//
// Usage:
//
//	itybench [flags] <suite>
//
//	itybench                 # suite "figures" at the default (full) scale
//	itybench fig7            # only Figure 7 (fig7..fig11, table1, table2, abl)
//	itybench -scale quick fig8
//	                         # reduced sizes (smoke | quick | full)
//	itybench -scale quick -o BENCH_figures.current.json figures
//	                         # a gated suite (figures | perf | taskbench |
//	                         # faults | scaling): table on stdout, report in
//	                         # the file; compare with internal/tools/perfgate
//	itybench -scale smoke -o - fig7 | jq .rows
//	                         # any suite's report on stdout, table on stderr
//	itybench scaling         # 64 → 16,384 simulated-rank sweep (halo +
//	                         # cilksort) and a 64-simulation fleet; -scale
//	                         # smoke stops at the paper's 1,728 ranks
//
// Flags come before the suite name. Host unit costs are not measured here:
// that is `bash benchmark/run.sh` (BENCHMARK.json).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ityr/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: parse, look the suite up, run it, write its
// report. It returns the exit status: 2 for a usage error, 1 for a suite
// that failed or a report that could not be written.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("itybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaleName := fs.String("scale", "full", "experiment scale: smoke, quick, or full")
	outFile := fs.String("o", "", "write the suite's itoyori-bench/v1 JSON report to this file ('-' for stdout, which moves the table to stderr); gate it with internal/tools/perfgate")
	heartbeat := fs.Duration("heartbeat", 2*time.Second, "live-telemetry interval for long host runs: periodic stderr lines with sim-time watermark, events/sec and host RSS; 0 disables")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: itybench [flags] <suite>")
		for _, s := range bench.Suites {
			fmt.Fprintf(stderr, "  %-10s %s\n", s.Name, s.Help)
		}
		fmt.Fprintln(stderr, "flags:")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, format+"\n", a...)
		return 2
	}

	name := "figures"
	switch fs.NArg() {
	case 0:
	case 1:
		name = fs.Arg(0)
	default:
		return usage("itybench: one suite at a time, flags first; got %q", fs.Args())
	}
	var suite bench.Suite
	var sc bench.Scale
	var suites, scales []string
	for _, s := range bench.Suites {
		suites = append(suites, s.Name)
		if s.Name == name {
			suite = s
		}
	}
	for _, s := range bench.Scales {
		scales = append(scales, s.Name)
		if s.Name == *scaleName {
			sc = s
		}
	}
	if suite.Run == nil {
		return usage("itybench: unknown suite %q (valid: %s)", name, strings.Join(suites, ", "))
	}
	if sc.Name == "" {
		return usage("itybench: unknown scale %q (valid: %s)", *scaleName, strings.Join(scales, ", "))
	}
	bench.SetHeartbeat(stderr, *heartbeat)

	// The one output block: the table goes to stdout unless the report
	// claims it, so `-o - | jq` stays parseable. The file is opened before
	// the run so an unwritable path fails in milliseconds, not minutes.
	table, out := stdout, io.Writer(nil)
	var file *os.File
	var err error
	switch *outFile {
	case "":
	case "-":
		table, out = stderr, stdout
	default:
		if file, err = os.Create(*outFile); err != nil {
			fmt.Fprintln(stderr, "itybench:", err)
			return 1
		}
		defer file.Close() // error paths; the written report's Close is checked below
		out = file
	}
	rep, runErr := suite.Run(table, sc)
	if out != nil && rep != nil { // nil: the suite failed before it had a report
		err := rep.WriteJSON(out)
		if file != nil && err == nil {
			err = file.Close()
		}
		if err != nil {
			fmt.Fprintln(stderr, "itybench:", err)
			return 1
		}
	}
	if runErr != nil {
		fmt.Fprintln(stderr, "itybench:", runErr)
		return 1
	}
	return 0
}

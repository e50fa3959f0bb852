// Command itytrace analyzes an "itytrace/v1" dump produced by the
// example binaries' -trace flag (or core.Runtime.WriteTrace). The
// default report shows critical-path vs. total work (the available
// parallelism, as in Cilkview) and a per-rank busy/idle/steal breakdown
// from the spans, then — from the embedded metrics snapshot, which covers
// the whole run even when the span ring dropped — the steal counts and
// latency histograms, the cache hit rate for the run's policy and any
// resilience activity.
//
//	cilksort -ranks 16 -trace cilksort.trace
//	itytrace cilksort.trace
//	itytrace -chrome timeline.json cilksort.trace   # re-export for Perfetto
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ityr/internal/trace"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "itytrace:", err)
	os.Exit(1)
}

// save writes a file through write and fails on any create, write or close
// error.
func save(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fail(err)
	}
}

// extract writes a snapshot the dump embeds to path ('-' for stdout); a
// dump without one fails with missing.
func extract(path string, doc []byte, missing string) {
	if len(doc) == 0 {
		fail(errors.New(missing))
	}
	write := func(w io.Writer) error {
		_, err := w.Write(append(doc, '\n'))
		return err
	}
	if path != "-" {
		save(path, write)
	} else if err := write(os.Stdout); err != nil {
		fail(err)
	}
}

func main() {
	chrome := flag.String("chrome", "", "also re-export the events as Chrome tracing JSON (load in Perfetto) to this file")
	metricsOut := flag.String("metrics", "", "also extract the embedded metrics snapshot to this file ('-' for stdout)")
	profileOut := flag.String("profile", "", "also extract the embedded itoyori-profile/v1 snapshot to this file ('-' for stdout)")
	events := flag.Bool("events", false, "print the raw event stream instead of the report")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: itytrace [flags] DUMP\nanalyzes an itytrace/v1 dump written by -trace\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	l, meta, err := trace.ReadDump(f)
	f.Close()
	if err != nil {
		fail(err)
	}

	if *events {
		l.Dump(os.Stdout)
		return
	}

	fmt.Printf("trace %s: %d events, %d ranks", flag.Arg(0), l.Len(), meta.Ranks)
	if meta.Policy != "" {
		fmt.Printf(", policy %s", meta.Policy)
	}
	fmt.Println()
	if trace.DropWarning(os.Stdout, meta) {
		fmt.Println()
	}
	fmt.Println()

	a := trace.Analyze(l, meta.Ranks)
	a.WriteReport(os.Stdout)
	if err := trace.StealReport(os.Stdout, meta.Metrics); err != nil {
		fail(err)
	}
	if err := trace.CacheReport(os.Stdout, meta.Policy, meta.Metrics); err != nil {
		fail(err)
	}
	if err := trace.ResilienceReport(os.Stdout, meta.Metrics); err != nil {
		fail(err)
	}
	if err := trace.ProfileReport(os.Stdout, meta.Profile); err != nil {
		fail(err)
	}
	if err := trace.ValidatorReport(os.Stdout, meta.Validator); err != nil {
		fail(err)
	}

	if *chrome != "" {
		save(*chrome, l.ChromeJSON)
		fmt.Printf("\nchrome trace -> %s (open in https://ui.perfetto.dev)\n", *chrome)
	}
	if *metricsOut != "" {
		extract(*metricsOut, meta.Metrics, "dump carries no metrics snapshot")
	}
	if *profileOut != "" {
		extract(*profileOut, meta.Profile, "dump carries no profile snapshot (run with -profile)")
	}
}

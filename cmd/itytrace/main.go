// Command itytrace analyzes an "itytrace/v1" dump produced by the
// example binaries' -trace flag (or core.Runtime.WriteTrace). The
// default report (trace.Report) shows critical-path vs. total work (the
// available parallelism, as in Cilkview) and a per-rank busy/idle/steal
// breakdown from the spans, then — from the embedded metrics snapshot,
// which covers the whole run even when the span ring dropped — the steal
// counts and latency histograms, the cache hit rate for the run's policy
// and any resilience activity.
//
//	cilksort -ranks 16 -trace cilksort.trace
//	itytrace cilksort.trace
//	itytrace -chrome timeline.json cilksort.trace   # re-export for Perfetto
//
// Exit status: 2 for a usage error; 1 for a dump that cannot be read (a
// document or embedded section of another schema included) or an output
// that cannot be written; else 0.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ityr/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("itytrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	chrome := fs.String("chrome", "", "also re-export the events as Chrome tracing JSON (load in Perfetto) to this file")
	metricsOut := fs.String("metrics", "", "also extract the embedded metrics snapshot to this file ('-' for stdout)")
	profileOut := fs.String("profile", "", "also extract the embedded itoyori-profile/v1 snapshot to this file ('-' for stdout)")
	events := fs.Bool("events", false, "print the raw event stream instead of the report")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: itytrace [flags] DUMP\nanalyzes an itytrace/v1 dump written by -trace\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	if err := analyze(stdout, fs.Arg(0), *chrome, *metricsOut, *profileOut, *events); err != nil {
		fmt.Fprintln(stderr, "itytrace:", err)
		return 1
	}
	return 0
}

// analyze reads the dump at path and prints its report (or, with events,
// the raw event stream), then writes the outputs the flags ask for.
func analyze(stdout io.Writer, path, chrome, metricsOut, profileOut string, events bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	l, meta, err := trace.ReadDump(f)
	f.Close()
	if err != nil {
		return err
	}
	if events {
		l.Dump(stdout)
		return nil
	}
	trace.Report(stdout, path, l, meta)

	if chrome != "" {
		chromeJSON := func(w io.Writer) error { return l.ChromeJSON(w, meta.CoresPerNode) }
		if err := save(chrome, chromeJSON); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nchrome trace -> %s (open in https://ui.perfetto.dev)\n", chrome)
	}
	if metricsOut != "" {
		if meta.Metrics == nil {
			return errors.New("dump carries no metrics snapshot")
		}
		if err := extract(stdout, metricsOut, meta.Metrics.WriteJSON); err != nil {
			return err
		}
	}
	if profileOut != "" {
		if meta.Profile == nil {
			return errors.New("dump carries no profile snapshot (run with -profile)")
		}
		if err := extract(stdout, profileOut, meta.Profile.WriteJSON); err != nil {
			return err
		}
	}
	return nil
}

// extract writes a document the dump embeds, through the same WriteJSON
// the app binaries' -metrics and -profile flags use, to path ('-' for
// stdout).
func extract(stdout io.Writer, path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(stdout)
	}
	return save(path, write)
}

// save writes a file through write and reports any create, write or close
// error.
func save(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

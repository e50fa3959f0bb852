// Package obs is the shared command-line plumbing for the example
// binaries (cilksort, fmm, utsmem): the -trace/-metrics/-profile
// observability flags, the -coalesce/-prefetch cache
// communication-batching knobs, the -sched scheduling-policy selector,
// and the -sdc/-replicate silent-data-corruption knobs.
// Each binary calls Register before flag.Parse, Apply on its Config, and
// Write after the run. Keeping this here means every command emits the
// same file formats (itytrace/v1 and itoyori-metrics/v1) that
// cmd/itytrace consumes, and exposes the same batching defaults that
// cmd/itybench uses.
package obs

import (
	"flag"
	"fmt"
	"os"

	"ityr/internal/core"
	"ityr/internal/fault"
	"ityr/internal/trace"
	"ityr/internal/uth"
)

// Options holds the values of the shared flags. Register binds them,
// Apply carries them into a Config, Write emits the requested dumps.
type Options struct {
	trace, metrics, profile string
	ring                    int
	sched                   string
	coalesce                bool
	prefetch                int
	sdc                     bool
	replicate               float64

	// Validate is the -validate value: the checkout-discipline validator
	// (Config.Pgas.Validate). Violating runs fail fast with a diagnostic
	// naming the broken rule; clean validated runs are bit-identical to
	// unvalidated ones. Print the report with ReportViolations, or read it
	// from the trace dump's "validator" section via itytrace.
	Validate bool
}

// Register registers the shared flags on the default flag set — once, for
// every CLI, so cilksort, fmm and utsmem stay flag-consistent: same names,
// same defaults, same valid sets. Call it before flag.Parse.
func Register() *Options {
	o := &Options{}
	flag.StringVar(&o.trace, "trace", "",
		"write an itytrace/v1 dump (analyze with itytrace) to this file")
	flag.StringVar(&o.metrics, "metrics", "",
		"write an itoyori-metrics/v1 JSON snapshot to this file ('-' for stdout)")
	flag.StringVar(&o.profile, "profile", "",
		"write an itoyori-profile/v1 streaming-profile snapshot to this file ('-' for stdout)")
	// Truncated runs are flagged by itytrace's WARNING line and the
	// trace_dropped_spans metric; the streaming profile (whose rollups
	// never truncate) is the graceful-degradation companion.
	flag.IntVar(&o.ring, "tracering", 0,
		"bound the trace to the most recent N events per rank (ring buffer); 0 keeps everything")
	flag.BoolVar(&o.Validate, "validate", false,
		"enforce the checkout-discipline memory-model contract (see PITFALLS.md); violations abort with a diagnostic")
	flag.StringVar(&o.sched, "sched", uth.ChildFirst.String(),
		"scheduling policy: childfirst (the paper's work-first stealing, default), helpfirst, or fbc (finish-based coordination)")
	flag.BoolVar(&o.coalesce, "coalesce", true,
		"coalesce adjacent dirty regions into merged write-back puts")
	flag.IntVar(&o.prefetch, "prefetch", 2,
		"sequential-access prefetch depth in blocks (0 disables)")
	// -sdc alone is the negative control (the run reports undetected
	// escapes and usually fails verification); -replicate alone measures
	// the pure replication overhead; together they show detection and
	// recovery.
	flag.BoolVar(&o.sdc, "sdc", false,
		"inject deterministic silent bit flips into task results (canned sdc-task plan, seeded from -seed)")
	flag.Float64Var(&o.replicate, "replicate", 0,
		"re-execute this fraction of protected task segments and compare result digests (0 = off, 1 = all)")
	return o
}

// Apply carries the parsed flag values into cfg, whose Seed must already
// be set (the -sdc plan is seeded from it). A nonempty -trace or -profile
// arms the span trace or the streaming collector for the run; negative
// prefetch depths are clamped to 0 (off). An unknown -sched value returns
// the parse error listing the valid set; callers should treat it as a usage
// error (exit 2).
func (o *Options) Apply(cfg *core.Config) error {
	pol, err := uth.ParseSchedPolicy(o.sched)
	if err != nil {
		return err
	}
	cfg.Sched.Policy = pol
	cfg.Trace = cfg.Trace || o.trace != ""
	cfg.Profile = o.profile != ""
	cfg.TraceRing = o.ring
	cfg.Pgas.Validate = o.Validate
	cfg.Pgas.CoalesceWriteBack = o.coalesce
	cfg.Pgas.PrefetchBlocks = max(o.prefetch, 0)
	if o.sdc {
		plan := fault.PlanSDC(cfg.Seed)
		cfg.Faults = &plan
	}
	if o.replicate > 0 {
		cfg.SDC = &uth.SDCConfig{Replicate: o.replicate}
	}
	return nil
}

// ReportViolations prints the validator report to stderr and reports
// whether any violation was recorded. Call it when a run aborts with
// pgas.ErrViolation (and at the end of validated runs for the clean
// confirmation line).
func ReportViolations(rt *core.Runtime) bool {
	recs := rt.Space().Violations()
	trace.WriteViolations(os.Stderr, recs)
	return len(recs) > 0
}

// Write emits the dump files requested by the flags. rt must have been
// built from a Config that went through Apply.
func (o *Options) Write(rt *core.Runtime) error {
	traceFile, metricsFile, profileFile := o.trace, o.metrics, o.profile
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return err
		}
		werr := rt.WriteTrace(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("writing trace %s: %w", traceFile, werr)
		}
	}
	if metricsFile != "" {
		w := os.Stdout
		if metricsFile != "-" {
			f, err := os.Create(metricsFile)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := rt.WriteMetrics(w); err != nil {
			return fmt.Errorf("writing metrics %s: %w", metricsFile, err)
		}
	}
	if profileFile != "" {
		w := os.Stdout
		if profileFile != "-" {
			f, err := os.Create(profileFile)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := rt.WriteProfile(w); err != nil {
			return fmt.Errorf("writing profile %s: %w", profileFile, err)
		}
	}
	return nil
}

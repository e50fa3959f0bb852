// Package obs is the command line of the application binaries (cilksort,
// fmm, utsmem) but for the application: Main registers the machine flags
// (-ranks/-cores/-policy/-seed), the -trace/-metrics/-profile
// observability flags, the -sched scheduling-policy selector, -validate
// and the -sdc/-replicate silent-data-corruption knobs, builds the
// runtime, hands it to the binary's body, writes the requested dumps and
// sets the exit status.
// Keeping this here means every command has the same flags with the same
// defaults and valid sets, emits the same file formats (itytrace/v1 and
// itoyori-metrics/v1) that cmd/itytrace consumes, and fails the same way.
package obs

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ityr"
	"ityr/internal/core"
	"ityr/internal/fault"
	"ityr/internal/pgas"
	"ityr/internal/trace"
	"ityr/internal/uth"
)

// Body is what a binary does with the runtime Main built: run the
// application on it and print the report on stdout. ok false means the
// output failed the binary's own check: the dumps are still written — a
// corrupted run (the -sdc negative control) is exactly the one whose trace
// and metrics are worth inspecting — and the exit status is 1.
type Body func(rt *core.Runtime) (ok bool, err error)

// Main is an application binary's main once its own flags are declared. It
// registers the shared flags (-seed with the binary's default and help
// text), parses the command line, fills the Config and passes it to setup,
// which checks the binary's own flags (an error is a usage error), may
// adjust the Config, and returns the body to run. Exit status: 2 for a
// usage error; 1 for a run that failed, an output that did not verify, a
// silent-data corruption that escaped to the output, a dump that could not
// be written or, in a validated run, a recorded violation; else 0.
func Main(seed int64, seedHelp string, setup func(cfg *core.Config) (Body, error)) {
	cfg := &core.Config{}
	flag.IntVar(&cfg.Ranks, "ranks", 32, "number of simulated ranks")
	flag.IntVar(&cfg.CoresPerNode, "cores", 8, "cores (ranks) per node")
	policy := flag.String("policy", "lazy", "cache policy: nocache|wt|wb|lazy")
	flag.Int64Var(&cfg.Seed, "seed", seed, seedHelp)
	o := register()
	flag.Parse()
	os.Exit(o.run(cfg, *policy, setup))
}

func (o *options) run(cfg *core.Config, policy string, setup func(cfg *core.Config) (Body, error)) int {
	fail := func(status int, err error) int {
		fmt.Fprintln(os.Stderr, err)
		return status
	}
	var err error
	if cfg.Pgas.Policy, err = ityr.ParsePolicy(policy); err != nil {
		return fail(2, err)
	}
	if err := o.apply(cfg); err != nil {
		return fail(2, err)
	}
	body, err := setup(cfg)
	if err != nil {
		return fail(2, err)
	}
	rt := core.NewRuntime(*cfg)
	ok, err := runBody(rt, body, cfg.Pgas.Validate)
	if err != nil {
		return fail(1, err)
	}
	if err := o.write(rt); err != nil {
		return fail(1, err)
	}
	// The report of a validated run: its violations, or the line that
	// confirms there were none.
	if cfg.Pgas.Validate && reportViolations(rt) {
		ok = false
	}
	// A corruption that reached the output unseen fails the run, whatever
	// the body's own check made of that output.
	if rt.MetricsSnapshot().Counters["sdc_escaped"] > 0 {
		ok = false
	}
	if !ok {
		return 1
	}
	return 0
}

// runBody runs body on rt. In a validated run, a panic wrapping
// pgas.ErrViolation (a checkout the validator refused, raised through
// Ctx.MustCheckout or Ctx.Checkin) ends the body as a failed run: the
// diagnostic goes to stderr and the caller still writes the dumps and the
// report. Any other panic propagates.
func runBody(rt *core.Runtime, body Body, validate bool) (ok bool, err error) {
	if validate {
		defer func() {
			if r := recover(); r != nil {
				e, isErr := r.(error)
				if !isErr || !errors.Is(e, pgas.ErrViolation) {
					panic(r)
				}
				fmt.Fprintln(os.Stderr, e)
				ok, err = false, nil
			}
		}()
	}
	return body(rt)
}

// options holds the values of the shared flags: register binds them, apply
// carries them into a Config, write emits the requested dumps.
type options struct {
	trace, metrics, profile string
	ring                    int
	sched                   string
	sdc                     bool
	replicate               float64
	// validate arms the checkout-discipline validator
	// (Config.Pgas.Validate). Violating runs fail fast with a diagnostic
	// naming the broken rule; clean validated runs are bit-identical to
	// unvalidated ones. The report is also in the trace dump's "validator"
	// section, for itytrace.
	validate bool
}

func register() *options {
	o := &options{}
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
	flag.BoolVar(&o.validate, "validate", false,
		"enforce the checkout-discipline memory-model contract (see PITFALLS.md); violations abort with a diagnostic")
	flag.StringVar(&o.sched, "sched", uth.ChildFirst.String(),
		"scheduling policy: childfirst (the paper's work-first stealing, default), helpfirst, or fbc (finish-based coordination)")
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

// apply carries the parsed flag values into cfg, whose Seed must already
// be set (the -sdc plan is seeded from it). A nonempty -trace or -profile
// arms the span trace or the streaming collector for the run. An unknown
// -sched value returns the parse error listing the valid set.
func (o *options) apply(cfg *core.Config) error {
	pol, err := uth.ParseSchedPolicy(o.sched)
	if err != nil {
		return err
	}
	cfg.Sched.Policy = pol
	cfg.Trace = o.trace != ""
	cfg.Profile = o.profile != ""
	cfg.TraceRing = o.ring
	cfg.Pgas.Validate = o.validate
	if o.sdc {
		plan := fault.PlanSDC(cfg.Seed)
		cfg.Faults = &plan
	}
	if o.replicate > 0 {
		cfg.SDC = &core.SDCConfig{Replicate: o.replicate}
	}
	return nil
}

// SDCSummary prints the run's silent-data-corruption line on stdout: the
// protected segments, replicas, detections, recoveries and escapes that
// MetricsSnapshot reports, under the label "sdc" padded to col, the width
// of the binary's report column. A run with neither defenses nor a
// corrupting plan keeps no such ledger and prints nothing.
func SDCSummary(rt *core.Runtime, col int) {
	c := rt.MetricsSnapshot().Counters
	protected, ok := c["sdc_protected_tasks"]
	if !ok {
		return
	}
	fmt.Printf("  %-*sprotected=%d replicas=%d detected=%d recovered=%d escaped=%d\n", col, "sdc",
		protected, c["replica_tasks"], c["sdc_detected"], c["sdc_recovered"], c["sdc_escaped"])
}

// reportViolations prints the validator report to stderr and reports
// whether any violation was recorded.
func reportViolations(rt *core.Runtime) bool {
	recs := rt.Space().Violations()
	trace.WriteViolations(os.Stderr, recs)
	return len(recs) > 0
}

// write emits the dump files requested by the flags. rt must have been
// built from a Config that went through apply.
func (o *options) write(rt *core.Runtime) error {
	for _, d := range []struct {
		what, path string
		write      func(io.Writer) error
	}{
		{"trace", o.trace, rt.WriteTrace},
		{"metrics", o.metrics, rt.WriteMetrics},
		{"profile", o.profile, rt.WriteProfile},
	} {
		var err error
		switch {
		case d.path == "":
			continue
		case d.path == "-" && d.what != "trace": // -trace has no stdout form
			err = d.write(os.Stdout)
		default:
			f, cerr := os.Create(d.path)
			if cerr != nil {
				return cerr
			}
			err = d.write(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("writing %s %s: %w", d.what, d.path, err)
		}
	}
	return nil
}

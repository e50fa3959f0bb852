package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minPasses is the fewest timed passes a run reports a median of, however
// slow the machine.
const minPasses = 3

// sample is what one pass contributes to the run's statistics.
type sample struct {
	wall, setup, cpu   float64 // seconds, as the host clock read them
	probe              float64 // mean of the host-speed probes either side of the pass, seconds
	rssMB              float64 // ru_maxrss, restarted before the pass
	allocMB, gcPauseMs float64
	gcCycles           float64
}

// scaled is a host time of this pass as it would read on a host where the
// probe takes probeNominal.
func (s sample) scaled(t float64) float64 { return probeScaled(t, s.probe) }

// each is f of every sample.
func each(ss []sample, f func(sample) float64) []float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return xs
}

func medianOf(ss []sample, f func(sample) float64) float64 { return median(each(ss, f)) }

// run is one workload's run in this process: the state runWorkload builds
// up pass by pass.
type run struct {
	w      io.Writer
	o      options
	wl     workload
	rec    *recorder
	ref    *pass     // the first pass: every later one must reproduce it
	done   int       // passes attempted
	bad    int       // passes that failed their check
	probes []float64 // every hostSpeedProbe sample, seconds
	last   float64   // mean of the latest probeSamples of them
}

// probe samples the host's speed, between passes.
func (r *run) probe() float64 {
	r.rec.begin("host.probe", "host")
	defer r.rec.end()
	sum := 0.0
	for i := 0; i < probeSamples; i++ {
		s := hostSpeedProbe(r.o.scale.probeLaps).Seconds()
		r.probes = append(r.probes, s)
		sum += s
	}
	r.last = sum / probeSamples
	return r.last
}

// pass runs the workload once, checks its output, probes the host's speed,
// and returns the pass, its sample and whether it verified. Before it, off
// both clocks, the garbage of the previous pass is collected and its
// memory handed back to the system, so that every pass starts where a
// fresh process would: it pays its own page faults and shows its own peak
// RSS. name labels the pass's span.
func (r *run) pass(name string, k knobs) (*pass, sample, bool) {
	before := r.last
	debug.FreeOSMemory()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	restartPeakRSS()
	runtime.GOMAXPROCS(k.maxProcs)
	p := &pass{begin: time.Now()}
	err := r.wl.run(k, p)
	runtime.GOMAXPROCS(1)
	rss := peakRSSMB()
	runtime.ReadMemStats(&m1)

	switch {
	case err != nil:
	case r.wl.want != "" && p.output != r.wl.want:
		err = fmt.Errorf("output %q, want %q", p.output, r.wl.want)
	case r.ref == nil:
		r.ref = p
	case p.simResult != r.ref.simResult:
		err = fmt.Errorf("simulated result %q, first pass had %q", p.simResult, r.ref.simResult)
	case k.hostProcs == 1 && p.counts() != r.ref.counts():
		// Sharded engines take a different host path (handoffs, fast
		// advances) to the same simulated result.
		err = fmt.Errorf("layer counts %v, first pass had %v", p.counts(), r.ref.counts())
	}
	checked := time.Now()

	r.rec.beginAt(name, "harness", p.begin)
	if !p.from.at.IsZero() && !p.to.at.IsZero() {
		r.rec.add("setup", "core", p.begin, p.from.at)
		r.rec.add("timed", "core", p.from.at, p.to.at)
		r.rec.add("verify", "harness", p.to.at, checked)
	}
	r.rec.endAt(checked)
	s := sample{
		wall: p.timed().Seconds(), setup: p.setup().Seconds(), cpu: (p.to.cpu - p.from.cpu).Seconds(),
		probe:     (before + r.probe()) / 2,
		rssMB:     rss,
		allocMB:   float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		gcCycles:  float64(m1.NumGC - m0.NumGC),
		gcPauseMs: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
	}
	r.done++
	if err != nil {
		r.bad++
		fmt.Fprintf(r.w, "pass %2d %-13s FAILED: %v\n", r.done, name, err)
	} else {
		fmt.Fprintf(r.w, "pass %2d %-13s wall %.4f s, set-up %.4f s, cpu %.4f s, peak rss %.1f MB, %v gc, probe %.2f ms\n",
			r.done, name, s.wall, s.setup, s.cpu, s.rssMB, s.gcCycles, 1e3*s.probe)
	}
	return p, s, err == nil
}

// tracedShare is the share of a traced run's --seconds that goes to its
// untraced passes; the profiled passes, the comparisons and the
// micro-drivers get the rest.
const tracedShare = 0.3

// runWorkload is a whole one-workload run: warm-up, timed passes until the
// clock (or the scale's pass count) says stop, and for a traced run the
// profiled passes, the comparisons and the micro-drivers, all inside the
// same --seconds. It prints every metric by name and returns them.
func runWorkload(w io.Writer, o options) (result, error) {
	wl, ok := o.scale.find(o.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	started := time.Now()
	deadline := started.Add(time.Duration(o.seconds * float64(time.Second)))
	steal0 := procStatSteal()
	// The serial engine runs one simulated goroutine at a time; a second P
	// only turns baton handoffs into cross-thread wake-ups. That penalty
	// is reported as host.gomaxprocs_penalty, not left in wall_s.
	runtime.GOMAXPROCS(1)
	printHeader(w, o, steal0)

	r := &run{w: w, o: o, wl: wl}
	if o.trace {
		r.rec = &recorder{}
	}
	r.rec.begin("run", "harness")
	r.rec.begin(wl.name, "workload")
	r.probe()
	plain := knobs{seed: o.seed, hostProcs: 1, maxProcs: 1}
	r.pass("warmup", plain)

	until := deadline
	if o.trace {
		until = started.Add(time.Duration(tracedShare * o.seconds * float64(time.Second)))
	}
	var timed []sample
	for n := 0; ; n++ {
		if o.scale.passes > 0 && n >= o.scale.passes {
			break
		}
		if o.scale.passes == 0 && n >= minPasses && !time.Now().Before(until) {
			break
		}
		if _, s, ok := r.pass("pass", plain); ok {
			timed = append(timed, s)
		}
	}
	wall := medianOf(timed, func(s sample) float64 { return s.scaled(s.wall) })
	setup := medianOf(timed, func(s sample) float64 { return s.scaled(s.setup) })

	res := result{Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) {
		res.Metrics[name] = metric{v, unit}
		fmt.Fprintf(w, "%-30s %16.6g %s\n", name, v, unit)
	}
	// wall_s and setup_s are probe-scaled; whoever reads them gets the
	// host's own seconds and the probe beside them, in every run.
	fmt.Fprintf(w, "\n%s: %d timed passes verified (N); each pass's times are scaled by %.0f ms / the host-speed probes around it\n",
		wl.name, len(timed), 1e3*probeNominal.Seconds())
	fmt.Fprintf(w, "as the host clock read them: wall %.4f s, set-up %.4f s (medians of the N passes); probe %.2f ms (median of %d samples)\n",
		medianOf(timed, func(s sample) float64 { return s.wall }), medianOf(timed, func(s sample) float64 { return s.setup }),
		1e3*median(r.probes), len(r.probes))
	// What a pass's live data needs is the least peak a pass got by with;
	// what the collector's concurrent cycles let it grow on top varies from
	// pass to pass with their timing, by a third on halo-4096r.
	rss := each(timed, func(s sample) float64 { return s.rssMB })
	fmt.Fprintf(w, "peak rss of a pass: least %.1f, median %.1f, most %.1f MB\n\n", quantile(rss, 0), median(rss), quantile(rss, 1))
	if !o.trace {
		put("wall_s", wall, "s")
		put("setup_s", setup, "s")
		put("peak_rss_mb", quantile(rss, 0), "MB")
	} else {
		r.layerMetrics(put, wall, timed)
		r.rec.end() // workload
		if o.units {
			r.unitMetrics(put, deadline)
		}
		put("host.steal_s", procStatSteal()-steal0, "s")
		r.rec.end() // run
		path := filepath.Join(o.out, "trace.json")
		if err := writeSpans(path, r.rec.spans); err != nil {
			return result{}, err
		}
		fmt.Fprintf(w, "\nspans: %d written to %s; self time by layer and span name:\n", len(r.rec.spans), path)
		printSelfTimes(w, r.rec.spans)
	}
	fmt.Fprintf(w, "\nops %d failed %d; /proc/stat steal %.2f s -> %.2f s; run took %.1f s\n",
		r.done, r.bad, steal0, procStatSteal(), time.Since(started).Seconds())
	res.Correct, res.Attempted, res.Failed = r.bad == 0 && len(timed) > 0, r.done, r.bad
	return res, nil
}

// layerMetrics reports what depends on the workload: the counts of the
// first pass's timed phase, the derived ratios, the simulated-time split
// of the profiled passes, the host's view of the timed passes, and one
// pass on all the host's CPUs. wall is the run's wall_s.
func (r *run) layerMetrics(put func(string, float64, string), wall float64, timed []sample) {
	ratio := func(a, b uint64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	over := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var c counts
	var simNs float64
	if r.ref != nil {
		c, simNs = r.ref.counts(), float64(r.ref.simNs)
	}
	count := func(name string, i int) { put(name, float64(c[i]), "count") }

	count("sim.events", cSimEvents)
	count("sim.handoffs", cSimHandoffs)
	put("sim.fast_advance_ratio", ratio(c[cSimFastAdvances], c[cSimEvents]), "ratio")
	put("sim.ns_per_event", over(wall*1e9, float64(c[cSimEvents])), "ns")
	count("rma.get_ops", cRmaGetOps)
	count("rma.put_ops", cRmaPutOps)
	count("rma.atomic_ops", cRmaAtomicOps)
	put("rma.bytes", float64(c[cRmaBytes]), "B")
	count("rma.flush_waits", cRmaFlushWaits)
	count("rma.barriers", cRmaBarriers)
	count("pgas.checkout_calls", cPgasCheckoutCalls)
	count("pgas.fetch_ops", cPgasFetchOps)
	put("pgas.fetch_bytes", float64(c[cPgasFetchBytes]), "B")
	put("pgas.hit_ratio", ratio(c[cPgasHitBytes], c[cPgasFetchBytes]), "ratio")
	count("pgas.writeback_ops", cPgasWritebackOps)
	put("pgas.writeback_bytes", float64(c[cPgasWritebackBytes]), "B")
	count("pgas.evictions", cPgasEvictions)
	put("pgas.prefetch_useful_ratio", over(float64(c[cPgasPrefetchHits]), float64(c[cPgasPrefetchedBlocks])), "ratio")
	count("uth.forks", cUthForks)
	count("uth.steals", cUthSteals)
	count("uth.failed_steals", cUthFailedSteals)
	put("uth.steal_success_ratio", ratio(c[cUthSteals], c[cUthFailedSteals]), "ratio")
	count("uth.migrations", cUthMigrations)
	put("core.sim_ns", simNs, "ns")

	// The profiled passes: Config.Profile on.
	var profiled []sample
	var share simShare
	for i := 0; i < r.o.scale.tracedN; i++ {
		if p, s, ok := r.pass("pass.profiled", knobs{seed: r.o.seed, profile: true, hostProcs: 1, maxProcs: 1}); ok {
			profiled = append(profiled, s)
			share = p.to.share.sub(p.from.share)
		}
	}
	of := func(ns uint64) float64 { return over(float64(ns), float64(r.wl.ranks)*simNs) }
	put("simshare.task", of(share.task), "ratio")
	put("simshare.steal", of(share.steal), "ratio")
	put("simshare.idle", of(share.idle), "ratio")
	put("simshare.stall", of(share.stall), "ratio")
	put("simshare.barrier", of(share.barrier), "ratio")

	walls := each(timed, func(s sample) float64 { return s.wall })
	put("host.probe_ms", 1e3*median(r.probes), "ms")
	put("host.wall_raw_s", median(walls), "s")
	put("host.wall_p90_s", quantile(walls, 0.9), "s")
	put("host.wall_iqr_frac", iqrFrac(walls), "ratio")
	put("host.cpu_s", medianOf(timed, func(s sample) float64 { return s.cpu }), "s")
	put("host.alloc_mb", medianOf(timed, func(s sample) float64 { return s.allocMB }), "MB")
	put("host.gc_cycles", medianOf(timed, func(s sample) float64 { return s.gcCycles }), "count")
	put("host.gc_pause_ms", medianOf(timed, func(s sample) float64 { return s.gcPauseMs }), "ms")
	put("host.rss_max_mb", quantile(each(timed, func(s sample) float64 { return s.rssMB }), 1), "MB")
	overhead := 0.0
	if len(profiled) > 0 {
		overhead = over(medianOf(profiled, func(s sample) float64 { return s.scaled(s.wall) }), wall) - 1
	}
	put("host.trace_overhead_frac", overhead, "ratio")

	// One pass of this workload with as many Ps as the host has CPUs.
	r.rec.begin("host.gomaxprocs_penalty", "host")
	_, s, _ := r.pass("pass.allprocs", knobs{seed: r.o.seed, hostProcs: 1, maxProcs: runtime.NumCPU()})
	r.rec.end()
	put("host.gomaxprocs_penalty", over(s.scaled(s.wall), wall), "ratio")
}

// unitMetrics measures what is the same whatever the workload: the halo
// pass on two engine shards against the serial engine, and then the
// micro-drivers, with what is left of the run until deadline shared
// among their repeats.
func (r *run) unitMetrics(put func(string, float64, string), deadline time.Time) {
	r.rec.begin("layers", "harness")
	defer r.rec.end()

	// One halo pass on the serial engine at 1 P over one on two shards at 2 P.
	r.rec.begin("sim.shard2_speedup", "sim")
	wl, ref := r.wl, r.ref
	r.wl, _ = r.o.scale.find("halo-4096r")
	r.ref = nil
	_, one, _ := r.pass("pass.shard1", knobs{seed: r.o.seed, hostProcs: 1, maxProcs: 1})
	_, two, _ := r.pass("pass.shard2", knobs{seed: r.o.seed, hostProcs: 2, maxProcs: 2})
	r.wl, r.ref = wl, ref
	r.rec.end()
	speedup := 0.0
	if two.wall > 0 {
		speedup = one.scaled(one.wall) / two.scaled(two.wall)
	}
	put("sim.shard2_speedup", speedup, "ratio")

	// What is left of the run is shared out again before every driver, a
	// sizing call's worth and unitRepeats repeats to each, so that one
	// that overruns (a fork-join tree or a 4,096-rank launch is the least
	// a call can do) shortens the ones after it.
	var shortest, longest time.Duration
	for i, d := range drivers {
		target := max(time.Until(deadline)/time.Duration((len(drivers)-i)*(unitRepeats+1)), r.o.scale.unitFloor)
		if i == 0 {
			shortest = target
		}
		shortest, longest = min(shortest, target), max(longest, target)
		put(d.name, r.unitCost(d, target), d.unit)
	}
	fmt.Fprintf(r.w, "micro-drivers: %d repeats each, of %v to %v of calls\n", unitRepeats, shortest.Round(time.Millisecond), longest.Round(time.Millisecond))
}

// restartPeakRSS asks the kernel to restart this process's peak-RSS
// watermark from its present RSS, so that each pass reports its own peak
// and the run their median, not the one largest excursion of the whole
// run. Where the kernel offers no such reset the watermark just keeps
// rising.
func restartPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is this process's ru_maxrss.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// procStatSteal is the machine's cumulative steal time in seconds, from
// the first line of /proc/stat (USER_HZ is 100 on Linux); 0 where absent.
func procStatSteal() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, rest, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(rest)
		}
	}
	return "unknown"
}

// commit is the revision the binary was built from, marked +dirty when the
// tree held uncommitted changes: the numbers are then not that commit's.
func commit() string {
	rev, dirty := "", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return "unknown (not built in a git checkout)"
	}
	return rev + dirty
}

// printHeader names the machine and the settings, so that no number can
// be quoted without them.
func printHeader(w io.Writer, o options, steal float64) {
	length := fmt.Sprintf("%g s", o.seconds)
	if o.scale.passes > 0 {
		length = fmt.Sprintf("%d timed passes", o.scale.passes)
	}
	fmt.Fprintf(w, "# benchmark %s: seed %d, %s, trace %v, one warm-up pass first\n", o.workload, o.seed, length, o.trace)
	fmt.Fprintf(w, "# host: nproc %d, GOMAXPROCS %d, %s %s/%s, cpu %q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
	fmt.Fprintf(w, "# commit %s; /proc/stat steal at start %.2f s\n", commit(), steal)
}

// Trace analysis: Cilkview-style work/span accounting and per-rank
// activity breakdowns computed from a recorded log — what only the spans
// can give — and the report sections read from the metrics document the
// dump embeds, whose whole-run counters survive ring truncation. This is
// the engine behind cmd/itytrace; it lives here so it can be unit-tested
// against hand-built fixtures and reused by benchmarks.
package trace

import (
	"fmt"
	"io"

	"ityr/internal/sim"
)

// RankActivity is one rank's share of the elapsed time.
type RankActivity struct {
	Rank  int
	Busy  sim.Time // executing task segments (KTaskRun spans)
	Steal sim.Time // inside steal attempts, successful or not
	Idle  sim.Time // the remainder of the elapsed window
}

// Analysis is the result of analyzing one trace.
type Analysis struct {
	Elapsed     sim.Time // max span end - min event time
	Work        sim.Time // total task execution time across ranks
	CritPath    sim.Time // longest dependence chain (the span, T_inf)
	Parallelism float64  // Work / CritPath

	Ranks []RankActivity

	// LiveTasks is the number of forked-but-unjoined threads left at the
	// end of the trace. Nonzero means the trace is truncated (ring
	// overwrote fork/join events) and CritPath is a lower bound.
	LiveTasks int
}

// StealLatencyBounds are the histogram bucket bounds (virtual ns) used
// for steal latency: 500ns .. ~16ms, doubling.
var StealLatencyBounds = ExpBuckets(500, 2, 16)

// Analyze computes work/span and per-rank activity from a log. nranks is
// the total rank count of the run (ranks that recorded nothing still get
// an all-idle row); nranks <= 0 infers the count from the events.
//
// The critical path follows the fork-join DAG recorded by the scheduler:
// a KFork copies the parent's accumulated path length to the child, each
// KTaskRun span extends its thread's path, and a KJoin folds the child's
// path back into the parent with max(). The root thread's final path
// length is the span (T_inf); Work/Span is the available parallelism, as
// in Cilkview. The walk takes the log's canonical order, which puts a
// join after the child's last span: a join that finds the child done
// first pays the fast-join cost, and one that blocked resumes on the
// child's rank, whose own order the log keeps.
func Analyze(l *Log, nranks int) Analysis {
	events := l.Events()
	var a Analysis

	cp := map[int64]sim.Time{}  // thread ID -> accumulated path length
	busy := map[int]sim.Time{}  // rank -> busy time
	steal := map[int]sim.Time{} // rank -> steal-attempt time
	maxRank := -1
	var first, last sim.Time
	started := false

	for _, e := range events {
		if e.Rank > maxRank {
			maxRank = e.Rank
		}
		if !started || e.T < first {
			first = e.T
		}
		if end := e.T + e.Dur; !started || end > last {
			last = end
		}
		started = true

		switch e.Kind {
		case KTaskRun:
			cp[e.Arg] += e.Dur
			busy[e.Rank] += e.Dur
			a.Work += e.Dur
		case KFork:
			cp[e.Arg] = cp[e.Arg2]
		case KJoin:
			if c := cp[e.Arg]; c > cp[e.Arg2] {
				cp[e.Arg2] = c
			}
			delete(cp, e.Arg)
		case KTaskEnd:
			if e.Arg2 == 0 {
				// A root task finished: its path length is that region's
				// span. Regions run sequentially, so spans add up.
				a.CritPath += cp[e.Arg]
				delete(cp, e.Arg)
			}
		case KSteal, KFailedSteal:
			steal[e.Rank] += e.Dur
		}
	}

	a.Elapsed = last - first
	a.LiveTasks = len(cp)
	if a.CritPath > 0 {
		a.Parallelism = float64(a.Work) / float64(a.CritPath)
	}

	if nranks <= 0 {
		nranks = maxRank + 1
	}
	a.Ranks = make([]RankActivity, nranks)
	for r := 0; r < nranks; r++ {
		ra := RankActivity{Rank: r, Busy: busy[r], Steal: steal[r]}
		if idle := a.Elapsed - ra.Busy - ra.Steal; idle > 0 {
			ra.Idle = idle
		}
		a.Ranks[r] = ra
	}
	return a
}

func pct(part, whole sim.Time) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// WriteReport writes the analysis as a human-readable text report.
func (a Analysis) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "elapsed       %12d ns\n", a.Elapsed)
	fmt.Fprintf(w, "work          %12d ns\n", a.Work)
	fmt.Fprintf(w, "critical path %12d ns\n", a.CritPath)
	fmt.Fprintf(w, "parallelism   %15.2f\n", a.Parallelism)
	if a.LiveTasks > 0 {
		fmt.Fprintf(w, "  (trace truncated: %d unjoined tasks; critical path is a lower bound)\n", a.LiveTasks)
	}
	fmt.Fprintf(w, "\nper-rank activity (%% of elapsed):\n")
	fmt.Fprintf(w, "  rank        busy       steal        idle\n")
	for _, r := range a.Ranks {
		fmt.Fprintf(w, "  %4d     %6.1f%%     %6.1f%%     %6.1f%%\n",
			r.Rank, pct(r.Busy, a.Elapsed), pct(r.Steal, a.Elapsed), pct(r.Idle, a.Elapsed))
	}
}

// Report writes the whole itytrace report of a dump ReadDump returned,
// named name on its first line: the ring-truncation warning, the span
// analysis, then the sections of the embedded documents the dump carries
// (steals, cache, resilience and SDC from the metrics; the streaming
// profile; the validator).
func Report(w io.Writer, name string, l *Log, m Meta) {
	fmt.Fprintf(w, "trace %s: %d events, %d ranks", name, l.Len(), m.Ranks)
	if m.Policy != "" {
		fmt.Fprintf(w, ", policy %s", m.Policy)
	}
	fmt.Fprintln(w)
	if DropWarning(w, m) {
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	Analyze(l, m.Ranks).WriteReport(w)
	if m.Metrics != nil {
		stealReport(w, m.Metrics)
		cacheReport(w, m.Policy, m.Metrics)
		resilienceReport(w, m.Metrics)
	}
	if m.Profile != nil {
		profileReport(w, m.Profile)
	}
	if m.Validator != nil {
		fmt.Fprintln(w)
		WriteViolations(w, m.Validator.Violations)
	}
}

// stealReport prints the whole run's steal counts and the thief-side
// latency histograms of successful and failed steals.
func stealReport(w io.Writer, snap *MetricsDoc) {
	fmt.Fprintf(w, "\nsteals        %8d ok, %d failed\n",
		snap.Counters["uth_steals"], snap.Counters["uth_failed_steals"])
	if h := snap.Histograms["uth_steal_latency_ns"]; h.Count > 0 {
		fmt.Fprintf(w, "steal latency (ns): count %d  mean %.0f  min %d  max %d\n",
			h.Count, float64(h.Sum)/float64(h.Count), h.Min, h.Max)
		writeHistBars(w, h)
	}
	if h := snap.Histograms["uth_failed_steal_latency_ns"]; h.Count > 0 {
		fmt.Fprintf(w, "failed-steal latency (ns): count %d  mean %.0f\n",
			h.Count, float64(h.Sum)/float64(h.Count))
	}
}

// writeHistBars prints the non-empty buckets of a histogram with
// proportional bars.
func writeHistBars(w io.Writer, h HistogramSnapshot) {
	var maxCount uint64
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	if maxCount == 0 {
		return
	}
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		var label string
		if i < len(h.Bounds) {
			label = fmt.Sprintf("<= %d", h.Bounds[i])
		} else {
			label = fmt.Sprintf(" > %d", h.Bounds[len(h.Bounds)-1])
		}
		bar := int(40 * c / maxCount)
		if bar == 0 {
			bar = 1
		}
		fmt.Fprintf(w, "  %-12s %8d  %s\n", label, c, bars[:bar])
	}
}

const bars = "########################################"

// cacheReport summarizes the PGAS cache behavior of the run. It reports
// the hit rate by bytes: HitBytes / (HitBytes + FetchBytes).
func cacheReport(w io.Writer, policy string, snap *MetricsDoc) {
	if policy == "" {
		policy = snap.Labels["policy"]
	}
	hit := snap.Counters["pgas_hit_bytes"]
	fetch := snap.Counters["pgas_fetch_bytes"]
	fmt.Fprintf(w, "\ncache (policy %s):\n", policy)
	total := hit + fetch
	if total > 0 {
		fmt.Fprintf(w, "  hit rate   %6.1f%%  (%d hit / %d fetched bytes)\n",
			100*float64(hit)/float64(total), hit, fetch)
	} else {
		fmt.Fprintf(w, "  no cached accesses recorded\n")
	}
	fmt.Fprintf(w, "  checkouts  %d  evictions %d  write-backs %d ops / %d bytes\n",
		snap.Counters["pgas_checkout_calls"],
		snap.Counters["pgas_evictions"],
		snap.Counters["pgas_writeback_ops"],
		snap.Counters["pgas_writeback_bytes"])
	// The coalescing line appears only when some run was merged.
	if merged := snap.Counters["pgas_wb_runs_merged"]; merged > 0 {
		fmt.Fprintf(w, "  coalesced  %d dirty runs merged into larger puts (%d bytes shipped merged)\n",
			merged, snap.Counters["pgas_wb_coalesced_bytes"])
	}
}

// resilienceReport summarizes fault-injection and recovery activity:
// retry/timeout/backoff counters from the RMA layer and steal-blacklist
// counters from the scheduler. Silent when the run saw no resilience
// activity.
func resilienceReport(w io.Writer, snap *MetricsDoc) {
	retries := snap.Counters["rma_retries"]
	blacklists := snap.Counters["uth_steal_blacklists"]
	injected := snap.Counters["fault_injected_failures"]
	sdcActive := snap.Counters["sdc_protected_tasks"] != 0 ||
		snap.Counters["sdc_injected_flips"] != 0 ||
		snap.Counters["replica_tasks"] != 0
	if retries == 0 && blacklists == 0 && injected == 0 && !sdcActive {
		return
	}
	fmt.Fprintf(w, "\nresilience (whole-run counters):\n")
	if retries != 0 || blacklists != 0 || injected != 0 {
		fmt.Fprintf(w, "  injected failures   %d\n", injected)
		fmt.Fprintf(w, "  rma retries         %d  (%d ns of timeout+backoff stall)\n",
			retries, snap.Counters["rma_retry_stall_ns"])
		fmt.Fprintf(w, "  steal timeouts      %d   blacklists %d   redirected picks %d\n",
			snap.Counters["uth_steal_timeouts"],
			snap.Counters["uth_steal_blacklists"],
			snap.Counters["uth_blacklist_skips"])
	}
	if sdcActive {
		sdcReport(w, snap)
	}
}

// sdcReport prints the silent-data-corruption section of the resilience
// report: whole-run counters plus a per-rank injected-vs-detected table.
// Escapes — corruptions the replication digest never saw — are the
// dangerous quantity, so they are flagged explicitly rather than left as a
// column the reader must scan.
func sdcReport(w io.Writer, snap *MetricsDoc) {
	escaped := snap.Counters["sdc_escaped"]
	fmt.Fprintf(w, "  sdc: protected %d  replicas %d  detected %d  recovered %d  injected flips %d\n",
		snap.Counters["sdc_protected_tasks"],
		snap.Counters["replica_tasks"],
		snap.Counters["sdc_detected"],
		snap.Counters["sdc_recovered"],
		snap.Counters["sdc_injected_flips"])
	if escaped > 0 {
		fmt.Fprintf(w, "  sdc: *** %d UNDETECTED ESCAPE(S) — output may be silently corrupt ***\n", escaped)
	} else if snap.Counters["sdc_injected_flips"] > 0 {
		fmt.Fprintf(w, "  sdc: no undetected escapes\n")
	}
	// Per-rank table, present only when a corruption plan was armed.
	if _, ok := snap.Counters["sdc_injected_rank_00"]; !ok {
		return
	}
	fmt.Fprintf(w, "  sdc per-rank corruption (injected / detected / escaped):\n")
	for i := 0; ; i++ {
		inj, ok := snap.Counters[fmt.Sprintf("sdc_injected_rank_%02d", i)]
		if !ok {
			break
		}
		det := snap.Counters[fmt.Sprintf("sdc_detected_rank_%02d", i)]
		esc := snap.Counters[fmt.Sprintf("sdc_escaped_rank_%02d", i)]
		if inj == 0 && det == 0 && esc == 0 {
			continue
		}
		flag := ""
		if esc > 0 {
			flag = "  <-- UNDETECTED"
		}
		fmt.Fprintf(w, "    rank %2d   %6d %9d %8d%s\n", i, inj, det, esc, flag)
	}
}

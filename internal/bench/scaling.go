// Rank-count scaling sweep and fleet throughput: the paper-scale serving
// story. The paper evaluates Itoyori at 1,728 ranks (36 A64FX nodes); the
// sweep here runs the same two workload archetypes — halo (pure SPMD) and
// cilksort (fork-join) — from 64 simulated ranks up to 16,384, recording how
// host cost and memory grow with rank count. Fleet mode answers the complementary
// question: how many *independent* deterministic simulations per second
// the host can serve when they run concurrently on separate goroutines,
// digest-verified against one another. The simulated half of every row
// (sim_ns, events, the fleet's digest verdict) is gated through
// BENCH_scaling.json, and so is every row's handoffs — a host-side count of
// process switches, not a simulated result, gated so that a kernel fast
// path quietly undone shows; the rest of the host half (wall clock,
// allocation, throughput) is listed in the report's Host and only printed —
// unit costs are the business of the gated host-time benchmark in
// benchmark/.
package bench

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ityr"
	"ityr/internal/apps/halo"
)

// scalingRanks is the rank-count curve the sweep measures, cut off at the
// scale's ScalingMaxRanks: the paper's smallest evaluation points, its
// headline 1,728-rank machine, and the 16K target.
var scalingRanks = []int{64, 512, 1728, 4096, 16384}

// scalingHost names what in a scaling or fleet report depends on the host.
var scalingHost = []string{
	"host_cpus", "host_workers",
	"host_ms", "events_per_sec", "alloc_bytes_per_rank", "sims_per_sec",
}

// scalingWorkloads are the sweep's workload archetypes. Each runs the
// workload at the given rank count and returns the gated half of its row:
// simulated ns, kernel events and process switches — the count an idle
// worker that has to be switched in to find nothing to steal would
// multiply, and an SPMD rank switched in for a private wait too.
var scalingWorkloads = []struct {
	name string
	run  func(ranks int) Metrics
}{
	{"halo-spmd", func(ranks int) Metrics {
		return runHaloWatched("halo-spmd", halo.Config{
			Ranks:        ranks,
			CoresPerNode: 8,
			CellsPerRank: 256,
			Steps:        10,
		})
	}},
	{"cilksort-forkjoin", func(ranks int) Metrics {
		elapsed, rt := figCilksort(1<<18, 16<<10, ranks, 8, ityr.WriteBackLazy, 11)
		st := rt.Engine().Stats()
		return Metrics{"sim_ns": float64(elapsed), "events": float64(st.Events), "handoffs": float64(st.Handoffs)}
	}},
}

// runHaloWatched runs halo with the live-telemetry heartbeat attached for
// the run's duration (a no-op when the heartbeat is disarmed).
func runHaloWatched(label string, cfg halo.Config) Metrics {
	stop := func() {}
	var rt *ityr.Runtime
	cfg.Observe = func(r *ityr.Runtime) {
		rt = r
		stop = watchEngine(label, cfg.Ranks, rt.Engine())
	}
	res, err := halo.Run(cfg)
	stop()
	if err != nil {
		panic(err)
	}
	return Metrics{"sim_ns": float64(res.Elapsed), "events": float64(res.Events), "handoffs": float64(rt.Engine().Stats().Handoffs)}
}

// ScalingSuite measures every workload at every rank count of the curve up
// to sc.ScalingMaxRanks (rows workload/ranks), then runs the fleet (row
// "fleet"), writing a human-readable table to w. Per row, sim_ns and events
// are the simulated result; handoffs counts the kernel's
// switches between processes, a host-side number that a kernel fast path
// may lower and nothing else may move; host_ms, events_per_sec (the host's
// dispatch throughput) and alloc_bytes_per_rank (total host heap
// allocation over the rank count — the affordability metric that must stay
// flat as ranks grow) describe the host.
func ScalingSuite(w io.Writer, sc Scale) (*Report, error) {
	rep := newHostReport("scaling", sc)
	fmt.Fprintln(w, "rank-count scaling sweep:")
	fmt.Fprintf(w, "%-20s %7s %10s %10s %12s %14s %12s\n",
		"workload", "ranks", "host ms", "sim ms", "events", "events/sec", "alloc/rank")
	for _, wl := range scalingWorkloads {
		for _, ranks := range scalingRanks {
			if ranks > sc.ScalingMaxRanks {
				break
			}
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			row := wl.run(ranks)
			hostSec := time.Since(t0).Seconds()
			runtime.ReadMemStats(&m1)
			row["host_ms"] = hostSec * 1e3
			row["events_per_sec"] = row["events"] / hostSec
			row["alloc_bytes_per_rank"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ranks)
			rep.Rows[fmt.Sprintf("%s/%d", wl.name, ranks)] = row
			fmt.Fprintf(w, "%-20s %7d %10.1f %10.3f %12.0f %14.0f %9.1fKB\n",
				wl.name, ranks, row["host_ms"], row["sim_ns"]/1e6, row["events"],
				row["events_per_sec"], row["alloc_bytes_per_rank"]/1024)
		}
	}
	return rep, fleetRun(w, sc.FleetSims, rep)
}

// FleetSuite is the fleet on its own.
func FleetSuite(w io.Writer, sc Scale) (*Report, error) {
	rep := newHostReport("fleet", sc)
	return rep, fleetRun(w, sc.FleetSims, rep)
}

// newHostReport is newReport for the two suites that also describe the
// host: it records how many CPUs the numbers were taken on.
func newHostReport(suite string, sc Scale) *Report {
	rep := newReport(suite, sc)
	rep.Config["host_cpus"] = runtime.NumCPU()
	rep.Host = scalingHost
	return rep
}

// fleetConfig is the per-member workload: small enough that a fleet of
// hundreds finishes promptly, and identical across members so every
// digest must match bit for bit.
var fleetConfig = halo.Config{Ranks: 64, CoresPerNode: 8, CellsPerRank: 256, Steps: 20}

// fleetMembers runs sims independent copies of fleetConfig on workers host
// goroutines, each member on an engine of its own, and returns every
// member's digest and event count; completed counts the members done.
func fleetMembers(sims, workers int, completed *atomic.Uint64) (digests []string, events []uint64) {
	digests = make([]string, sims)
	events = make([]uint64, sims)
	var wg sync.WaitGroup
	next := make(chan int)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				res, err := halo.Run(fleetConfig)
				if err != nil {
					panic(err)
				}
				digests[idx] = res.Digest()
				events[idx] = res.Events
				completed.Add(1)
			}
		}()
	}
	for idx := 0; idx < sims; idx++ {
		next <- idx
	}
	close(next)
	wg.Wait()
	return digests, events
}

// fleetRun runs the fleet across GOMAXPROCS host goroutines and adds the
// "fleet" row to rep: total_events over all members, digest_ok — every
// member produced the identical digest; engines running concurrently in
// one host process must not perturb one another, and a 0 here (returned
// as an error too) means shared mutable state leaked between supposedly
// independent simulations — and the serving throughput, sims_per_sec and
// events_per_sec of host wall clock.
func fleetRun(w io.Writer, sims int, rep *Report) error {
	workers := min(runtime.GOMAXPROCS(0), sims)
	rep.Config["fleet_sims"] = sims
	rep.Config["fleet_ranks_per_sim"] = fleetConfig.Ranks
	rep.Config["host_workers"] = workers
	var completed atomic.Uint64
	stopHB := watchCounter(fmt.Sprintf("fleet x%d ranks=%d", sims, fleetConfig.Ranks), sims, &completed)
	t0 := time.Now()
	digests, events := fleetMembers(sims, workers, &completed)
	stopHB()
	hostSec := time.Since(t0).Seconds()
	var total uint64
	ok := true
	for i := 0; i < sims; i++ {
		total += events[i]
		ok = ok && digests[i] == digests[0]
	}
	row := Metrics{
		"total_events":   float64(total),
		"digest_ok":      verdict(ok),
		"host_ms":        hostSec * 1e3,
		"sims_per_sec":   float64(sims) / hostSec,
		"events_per_sec": float64(total) / hostSec,
	}
	rep.Rows["fleet"] = row
	status := "digests ok"
	if !ok {
		status = "DIGEST MISMATCH"
	}
	fmt.Fprintf(w, "fleet: %d sims x %d ranks on %d workers: %.1f ms, %.1f sims/sec, %.0f events/sec (%s)\n",
		sims, fleetConfig.Ranks, workers, row["host_ms"], row["sims_per_sec"], row["events_per_sec"], status)
	if !ok {
		return errors.New("fleet members diverged: concurrent simulations are not independent")
	}
	return nil
}

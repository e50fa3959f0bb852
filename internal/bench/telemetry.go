// Live run telemetry: a periodic stderr heartbeat for long host runs
// (the 16K-rank scaling sweep, fleets, the perf suite), so a multi-minute
// point is no longer a silent wait. Each line reports the in-flight run's
// label and rank count, the simulation's live virtual-time watermark and
// event-dispatch rate (sim.Engine.LiveTime/LiveEvents — lock-free
// snapshots the engine publishes while running), and the host's resident
// set. Telemetry is host-side observability only: it reads the engine's
// atomics and never touches simulated state, so armed or not, simulated
// results are bit-identical.

package bench

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ityr/internal/sim"
)

// hbWriter / hbEvery arm the heartbeat (cmd/itybench's -heartbeat flag);
// a zero interval — the default — disables it and keeps every run path at
// a single branch.
var (
	hbWriter io.Writer
	hbEvery  time.Duration
)

// SetHeartbeat arms the live-telemetry heartbeat for subsequent runs:
// progress lines go to w every interval. An interval <= 0 (or nil w)
// disarms it.
func SetHeartbeat(w io.Writer, every time.Duration) {
	if every <= 0 || w == nil {
		hbWriter, hbEvery = nil, 0
		return
	}
	hbWriter, hbEvery = w, every
}

// watchEngine starts the heartbeat for one in-flight simulation and
// returns its stop function (a no-op func when disarmed). The watcher
// polls the engine's live snapshots from its own goroutine; the engine
// publishes them every few thousand pops.
func watchEngine(label string, ranks int, eng *sim.Engine) func() {
	w, every := hbWriter, hbEvery
	if every <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(every)
		defer tick.Stop()
		lastEv := eng.LiveEvents()
		lastT := time.Now()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				ev, now := eng.LiveEvents(), time.Now()
				rate := float64(ev-lastEv) / now.Sub(lastT).Seconds()
				fmt.Fprintf(w, "[hb] %-24s ranks=%d sim=%.3fms events=%d events/sec=%.0f rss=%.1fMB\n",
					label, ranks, float64(eng.LiveTime())/1e6, ev, rate,
					float64(hostRSSBytes())/1e6)
				lastEv, lastT = ev, now
			}
		}
	}()
	return func() { close(done); <-stopped }
}

// watchCounter is the fleet-mode heartbeat: progress is completed-member
// count rather than a single engine's clock. done is the fleet's shared
// completion counter.
func watchCounter(label string, total int, done *atomic.Uint64) func() {
	w, every := hbWriter, hbEvery
	if every <= 0 {
		return func() {}
	}
	quit := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				fmt.Fprintf(w, "[hb] %-24s done=%d/%d rss=%.1fMB\n",
					label, done.Load(), total, float64(hostRSSBytes())/1e6)
			}
		}
	}()
	return func() { close(quit); <-stopped }
}

// hostRSSBytes reads the process's resident set from /proc/self/statm
// (resident pages × page size), falling back to the Go heap size where
// procfs is unavailable.
func hostRSSBytes() uint64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) >= 2 {
			if pages, err := strconv.ParseUint(f[1], 10, 64); err == nil {
				return pages * uint64(os.Getpagesize())
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

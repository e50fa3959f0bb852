package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// The host this runs on changes speed by tens of percent over minutes
// (memory-system contention from its neighbours: CPU time rises with wall
// time, steal stays flat), and every workload's pass time moves with it.
// hostSpeedProbe is a fixed piece of work of the simulator's kind — many
// goroutines handing a token round over channels, each touching its own
// stack — made of nothing but the Go runtime, so that no change to the
// repo can move it. A run samples it probeSamples times between every two
// passes and reports each pass's times as seconds on a host where the probe
// takes probeNominal: measured time × probeNominal / the mean of the
// samples either side of the pass. The raw times are printed beside them,
// and their median is reported as host.wall_raw_s by the traced run.
const (
	probeGoroutines = 1024
	probeLaps       = 64 // at full scale
	probeSamples    = 3
	probeNominal    = 25 * time.Millisecond
)

// probeSink keeps the goroutines' stores from being optimised away.
var probeSink atomic.Uint64

func hostSpeedProbe(laps int) time.Duration {
	chans := make([]chan int, probeGoroutines)
	for i := range chans {
		chans[i] = make(chan int)
	}
	var wg sync.WaitGroup
	wg.Add(probeGoroutines)
	for i := range chans {
		in, out, first := chans[i], chans[(i+1)%probeGoroutines], i == 0
		go func() {
			defer wg.Done()
			var pad [512]uint64
			seen := 0
			for v := range in {
				pad[v&511] += uint64(v)
				if seen++; first && seen == laps {
					break // the token has gone round laps times
				}
				out <- v + 1
			}
			probeSink.Add(pad[3])
			close(out) // lets the next goroutine's range end, all round the ring
		}()
	}
	t := time.Now()
	chans[0] <- 0
	wg.Wait()
	return time.Since(t)
}

// probeScaled is a host time t, measured while the probe took probe
// seconds, as it would read on a host where the probe takes probeNominal.
func probeScaled(t, probe float64) float64 { return t * probeNominal.Seconds() / probe }

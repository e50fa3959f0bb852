// Histogram example: a two-phase global-view computation. Phase one fills
// a distributed array with values; phase two builds per-task private
// histograms and combines them by parallel reduction — the idiomatic way
// to express commutative aggregation under SC-for-DRF, where concurrent
// tasks must not checkout the same region for writing.
//
//	go run ./examples/histogram
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"ityr"
)

const nBins = 64

func main() {
	if err := run(os.Stdout, 1<<19); err != nil {
		log.Fatal(err)
	}
}

// run histograms nValues pseudo-random values, failing if one is lost.
func run(w io.Writer, nValues int64) error {
	cfg := ityr.Config{
		Ranks:        24,
		CoresPerNode: 8,
		Seed:         4,
	}
	var hist [nBins]int64
	elapsed, err := ityr.LaunchRoot(cfg, func(c *ityr.Ctx) {
		data := ityr.AllocArray[uint32](c, nValues, ityr.BlockCyclicDist)

		// Phase 1: deterministic pseudo-random fill.
		c.ParallelFor(0, nValues, 8192, func(c *ityr.Ctx, lo, hi int64) {
			v := ityr.Checkout(c, data.Slice(lo, hi), ityr.Write)
			x := uint32(lo)*2654435761 + 12345
			for i := range v {
				x ^= x << 13
				x ^= x >> 17
				x ^= x << 5
				v[i] = x
			}
			c.Charge(ityr.Time(hi - lo)) // 1 ns/element
			ityr.Checkin(c, data.Slice(lo, hi), ityr.Write)
		})

		// Phase 2: histogram by divide-and-conquer reduction.
		hist = histogram(c, data)
	})
	if err != nil {
		return err
	}

	var total, max int64
	for _, h := range hist {
		total += h
		if h > max {
			max = h
		}
	}
	fmt.Fprintf(w, "histogram of %d values into %d bins in %.3f ms (virtual)\n",
		total, nBins, float64(elapsed)/1e6)
	for b := 0; b < 8; b++ { // print the first few bins as a bar chart
		bar := int(hist[b] * 40 / max)
		fmt.Fprintf(w, "  bin %2d %8d %s\n", b, hist[b], strings.Repeat("#", bar))
	}
	if total != nValues {
		return fmt.Errorf("histogram lost values: %d != %d", total, nValues)
	}
	return nil
}

func histogram(c *ityr.Ctx, data ityr.GSpan[uint32]) [nBins]int64 {
	if data.Len <= 16384 {
		var h [nBins]int64
		v := ityr.Checkout(c, data, ityr.Read)
		for _, x := range v {
			h[x%nBins]++
		}
		c.Charge(ityr.Time(data.Len) * 2)
		ityr.Checkin(c, data, ityr.Read)
		return h
	}
	l, r := data.SplitTwo()
	var hl, hr [nBins]int64
	c.ParallelInvoke(
		func(c *ityr.Ctx) { hl = histogram(c, l) },
		func(c *ityr.Ctx) { hr = histogram(c, r) },
	)
	for i := range hl {
		hl[i] += hr[i]
	}
	return hl
}

// Quickstart: allocate a distributed global array, initialize it in
// parallel with checkout/checkin, and reduce it — the smallest complete
// Itoyori program.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"ityr"
)

func main() {
	if err := run(os.Stdout, 1<<20); err != nil {
		log.Fatal(err)
	}
}

// run initializes and sums an n-element global array.
func run(w io.Writer, n int64) error {
	cfg := ityr.Config{
		Ranks:        16, // 2 simulated nodes x 8 cores
		CoresPerNode: 8,
		Seed:         1,
	}

	var sum int64
	elapsed, err := ityr.LaunchRoot(cfg, func(c *ityr.Ctx) {
		// A global array distributed block-cyclically over all ranks.
		a := ityr.AllocArray[int64](c, n, ityr.BlockCyclicDist)

		// Parallel initialization. ParallelFor splits the range into
		// tasks; the runtime load-balances them across ranks, and each
		// task accesses global memory through a checkout/checkin pair.
		c.ParallelFor(0, n, 8192, func(c *ityr.Ctx, lo, hi int64) {
			v := ityr.Checkout(c, a.Slice(lo, hi), ityr.Write)
			for i := range v {
				v[i] = lo + int64(i)
			}
			ityr.Checkin(c, a.Slice(lo, hi), ityr.Write)
		})

		// Parallel reduction by divide and conquer.
		sum = reduce(c, a)
	})
	if err != nil {
		return err
	}

	want := n * (n - 1) / 2
	fmt.Fprintf(w, "sum = %d (want %d, match=%v)\n", sum, want, sum == want)
	fmt.Fprintf(w, "virtual execution time: %.3f ms on %d ranks\n", float64(elapsed)/1e6, cfg.Ranks)
	return nil
}

func reduce(c *ityr.Ctx, a ityr.GSpan[int64]) int64 {
	if a.Len <= 8192 {
		v := ityr.Checkout(c, a, ityr.Read)
		var s int64
		for _, x := range v {
			s += x
		}
		ityr.Checkin(c, a, ityr.Read)
		c.Charge(ityr.Time(a.Len)) // ~1ns per element of compute
		return s
	}
	l, r := a.SplitTwo()
	var sl, sr int64
	c.ParallelInvoke(
		func(c *ityr.Ctx) { sl = reduce(c, l) },
		func(c *ityr.Ctx) { sr = reduce(c, r) },
	)
	return sl + sr
}

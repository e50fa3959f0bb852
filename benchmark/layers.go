package main

import (
	"fmt"
	"time"

	"ityr"
	"ityr/internal/netmodel"
	"ityr/internal/pgas"
	"ityr/internal/rma"
	"ityr/internal/sim"
)

// A driver makes about n calls into one layer's public functions and
// returns the host time they took and how many it made; its own set-up
// stays outside that time.
type driver struct {
	name, layer string
	unit        string // per call: "ns" or "us"
	fn          func(sc scale, n int) (time.Duration, int)
}

const unitRepeats = 5

// unitCost sizes n with growing trial calls so that the calls of one
// repeat take about target, or the whole repeat, with what the driver does
// off the clock, four times that, whichever is less. It runs unitRepeats
// repeats and returns the median host time per call in d.unit, scaled like
// a pass's times by the host-speed probes either side.
func (r *run) unitCost(d driver, target time.Duration) float64 {
	sc := r.o.scale
	r.rec.begin(d.name, d.layer)
	defer r.rec.end()
	n := 1
	for {
		t := time.Now()
		took, _ := d.fn(sc, n)
		if whole := time.Since(t); took >= target/10 || whole >= 4*target {
			n = int(float64(n)*min(float64(target)/float64(took), 4*float64(target)/float64(whole))) + 1
			break
		}
		n *= 8
	}
	before := r.last
	var per []float64
	for i := 0; i < unitRepeats; i++ {
		r.rec.begin("repeat", d.layer)
		took, calls := d.fn(sc, n)
		r.rec.end()
		per = append(per, float64(took.Nanoseconds())/float64(calls))
	}
	cost := probeScaled(median(per), (before+r.probe())/2)
	if d.unit == "us" {
		cost /= 1e3
	}
	return cost
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func timeRun(e *sim.Engine) time.Duration {
	t := time.Now()
	must(e.Run())
	return time.Since(t)
}

// sink keeps results the compiler could otherwise drop with their calls.
var sink int64

var drivers = []driver{
	{"sim.advance_fast_ns", "sim", "ns", func(_ scale, n int) (time.Duration, int) {
		e := sim.NewEngine()
		e.Spawn("p", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Advance(10)
			}
		})
		return timeRun(e), n
	}},
	{"sim.handoff_ns", "sim", "ns", func(_ scale, n int) (time.Duration, int) {
		// Two processes in lockstep: every Advance pops an event and hands
		// the baton to the other goroutine.
		e := sim.NewEngine()
		half := n/2 + 1
		for i := 0; i < 2; i++ {
			e.Spawn("p", func(p *sim.Proc) {
				for i := 0; i < half; i++ {
					p.Advance(10)
				}
			})
		}
		return timeRun(e), 2 * half
	}},
	{"sim.parkwake_ns", "sim", "ns", func(_ scale, n int) (time.Duration, int) {
		e := sim.NewEngine()
		consumer := e.Spawn("consumer", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Park()
			}
		})
		e.Spawn("producer", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Advance(5)
				consumer.Wake()
			}
		})
		return timeRun(e), n
	}},
	{"sim.callback_ns", "sim", "ns", func(_ scale, n int) (time.Duration, int) {
		e := sim.NewEngine()
		left := n
		var tick func()
		tick = func() {
			if left--; left > 0 {
				e.After(10, tick)
			}
		}
		e.After(10, tick)
		return timeRun(e), n
	}},
	{"sim.ring4096_ns_per_event", "sim", "ns", func(sc scale, n int) (time.Duration, int) {
		// Every process advances in lockstep, 10 ns a round, so the queue
		// holds bigRanks events and each pop resumes a different goroutine.
		// Engine callbacks between rounds hold the clock: it starts after
		// the round in which every goroutine is resumed for the first time
		// and stops before the one in which they all exit.
		e := sim.NewEngine()
		rounds := n/sc.bigRanks + 1
		for i := 0; i < sc.bigRanks; i++ {
			e.Spawn("p", func(p *sim.Proc) {
				for i := 0; i < rounds+2; i++ {
					p.Advance(10)
				}
			})
		}
		var t0, t1 time.Time
		e.At(15, func() { t0 = time.Now() })
		e.At(sim.Time(rounds)*10+15, func() { t1 = time.Now() })
		must(e.Run())
		return t1.Sub(t0), rounds * sc.bigRanks
	}},
	{"sim.spawn_us_per_proc", "sim", "us", func(sc scale, n int) (time.Duration, int) {
		rounds := n/sc.bigRanks + 1
		t := time.Now()
		for r := 0; r < rounds; r++ {
			e := sim.NewEngine()
			for i := 0; i < sc.bigRanks; i++ {
				e.Spawn("p", func(*sim.Proc) {})
			}
			must(e.Run())
		}
		return time.Since(t), rounds * sc.bigRanks
	}},
	{"netmodel.cost_ns", "netmodel", "ns", func(_ scale, n int) (time.Duration, int) {
		p := netmodel.Default(8)
		t := time.Now()
		var acc sim.Time
		for i := 0; i < n; i++ {
			acc += p.TransferTime(0, 8+i&7, 256) + p.AtomicTime(0, 8+i&7)
		}
		sink += acc
		return time.Since(t), n
	}},
	{"rma.put_flush_ns", "rma", "ns", func(_ scale, n int) (time.Duration, int) {
		buf := make([]byte, 256)
		return rmaPair(func(r *rma.Rank, w *rma.Win) {
			for i := 0; i < n; i++ {
				w.Put(r, buf, 1, 0)
				r.Flush()
			}
		}), n
	}},
	{"rma.get_flush_ns", "rma", "ns", func(_ scale, n int) (time.Duration, int) {
		buf := make([]byte, 256)
		return rmaPair(func(r *rma.Rank, w *rma.Win) {
			for i := 0; i < n; i++ {
				w.Get(r, 1, 0, buf)
				r.Flush()
			}
		}), n
	}},
	{"rma.faa_ns", "rma", "ns", func(_ scale, n int) (time.Duration, int) {
		return rmaPair(func(r *rma.Rank, w *rma.Win) {
			for i := 0; i < n; i++ {
				w.FetchAndAdd(r, 1, 0, 1)
			}
		}), n
	}},
	{"rma.barrier_ns_per_rank", "rma", "ns", func(sc scale, n int) (time.Duration, int) {
		// Rank 0 holds the clock: from after a first barrier, which every
		// rank's goroutine must have started to complete, to after its
		// last, before the goroutines exit.
		e := sim.NewEngine()
		c := rma.New(e, sc.bigRanks, netmodel.Default(8))
		rounds := n/sc.bigRanks + 1
		var t0, t1 time.Time
		for i := 0; i < sc.bigRanks; i++ {
			r := c.Rank(i)
			e.Spawn("rank", func(p *sim.Proc) {
				r.Attach(p)
				r.Barrier()
				if r.ID() == 0 {
					t0 = time.Now()
				}
				for i := 0; i < rounds; i++ {
					r.Barrier()
				}
				if r.ID() == 0 {
					t1 = time.Now()
				}
			})
		}
		must(e.Run())
		return t1.Sub(t0), rounds * sc.bigRanks
	}},
	{"pgas.checkout_hit_ns", "pgas", "ns", func(_ scale, n int) (time.Duration, int) {
		return pgasRemote(func(l *pgas.Local, remote pgas.Addr) (took time.Duration) {
			checkoutIn(l, remote, pgas.Read)
			t := time.Now()
			for i := 0; i < n; i++ {
				checkoutIn(l, remote, pgas.Read)
			}
			return time.Since(t)
		}), n
	}},
	{"pgas.checkout_miss_ns", "pgas", "ns", func(_ scale, n int) (time.Duration, int) {
		// Sweep the remote region one sub-block per checkout, so each one
		// fetches; drop the cache between sweeps, off the clock. A first
		// sweep, off the clock too, takes the page faults of fresh memory.
		return pgasRemote(func(l *pgas.Local, remote pgas.Addr) (took time.Duration) {
			for i := 0; i < remoteSubBlocks; i++ {
				checkoutIn(l, remote+pgas.Addr(i*subBlock), pgas.Read)
			}
			l.AcquireFence()
			for done := 0; done < n; {
				t := time.Now()
				for i := 0; i < remoteSubBlocks && done < n; i, done = i+1, done+1 {
					checkoutIn(l, remote+pgas.Addr(i*subBlock), pgas.Read)
				}
				took += time.Since(t)
				l.AcquireFence()
			}
			return took
		}), n
	}},
	{"pgas.checkin_write_ns", "pgas", "ns", func(_ scale, n int) (time.Duration, int) {
		return pgasRemote(func(l *pgas.Local, remote pgas.Addr) (took time.Duration) {
			checkoutIn(l, remote, pgas.Write)
			t := time.Now()
			for i := 0; i < n; i++ {
				checkoutIn(l, remote, pgas.Write)
			}
			took = time.Since(t)
			l.ReleaseFence()
			return took
		}), n
	}},
	{"pgas.release_ns", "pgas", "ns", func(_ scale, n int) (time.Duration, int) {
		// Dirty every other sub-block of the remote region off the clock
		// (adjacent ones would coalesce into one Put), then time the fence
		// that writes them back. The first round, on fresh memory, is not
		// timed.
		rounds := n/(remoteSubBlocks/2) + 1
		return pgasRemote(func(l *pgas.Local, remote pgas.Addr) (took time.Duration) {
			for r := 0; r <= rounds; r++ {
				for i := 0; i < remoteSubBlocks; i += 2 {
					checkoutIn(l, remote+pgas.Addr(i*subBlock), pgas.Write)
				}
				t := time.Now()
				l.ReleaseFence()
				if r > 0 {
					took += time.Since(t)
				}
			}
			return took
		}), rounds * remoteSubBlocks / 2
	}},
	{"pgas.acquire_ns", "pgas", "ns", func(_ scale, n int) (time.Duration, int) {
		rounds := n/remoteBlocks + 1
		return pgasRemote(func(l *pgas.Local, remote pgas.Addr) (took time.Duration) {
			for r := 0; r < rounds; r++ {
				for i := 0; i < remoteBlocks; i++ {
					checkoutIn(l, remote+pgas.Addr(i*cacheBlock), pgas.Read)
				}
				t := time.Now()
				l.AcquireFence()
				took += time.Since(t)
			}
			return took
		}), rounds * remoteBlocks
	}},
	{"uth.fork_join_ns", "uth", "ns", func(sc scale, n int) (time.Duration, int) { return forkJoinTrees(sc, 1, n) }},
	{"uth.fork_join_64r_ns", "uth", "ns", func(sc scale, n int) (time.Duration, int) { return forkJoinTrees(sc, 64, n) }},
	{"uth.idle_poll_ns", "uth", "ns", func(_ scale, n int) (time.Duration, int) {
		// The root charges n µs of simulated time in one Advance while the
		// other 63 ranks find nothing to steal.
		rt := ityr.NewRuntime(ityr.Config{Ranks: 64, CoresPerNode: 8, Pgas: cacheConfig(), Seed: 11})
		var took time.Duration
		var failed uint64
		_, err := rt.RunRoot(func(c *ityr.Ctx) {
			f0 := rt.Sched().Stats.FailedSteals
			t := time.Now()
			c.Charge(sim.Time(n) * sim.Microsecond)
			took = time.Since(t)
			failed = rt.Sched().Stats.FailedSteals - f0
		})
		must(err)
		return took, int(failed) + 1
	}},
	{"core.launch_us_per_rank", "core", "us", func(sc scale, n int) (time.Duration, int) {
		rounds := n/sc.bigRanks + 1
		t := time.Now()
		for i := 0; i < rounds; i++ {
			must(ityr.NewRuntime(ityr.Config{Ranks: sc.bigRanks, CoresPerNode: 8, Pgas: cacheConfig()}).Run(func(*ityr.SPMD) {}))
		}
		return time.Since(t), rounds * sc.bigRanks
	}},
}

// rmaPair runs body on rank 0 of a two-rank communicator with one rank per
// node, so rank 1 is across the network.
func rmaPair(body func(r *rma.Rank, w *rma.Win)) time.Duration {
	e := sim.NewEngine()
	c := rma.New(e, 2, netmodel.Default(1))
	w := c.NewUniformWin(1 << 16)
	for i := 0; i < 2; i++ {
		r := c.Rank(i)
		e.Spawn("rank", func(p *sim.Proc) {
			r.Attach(p)
			if r.ID() == 0 {
				body(r, w)
			}
		})
	}
	return timeRun(e)
}

const (
	subBlock        = 4 << 10
	cacheBlock      = 64 << 10
	remoteBytes     = 8 << 20 // half the cache: sweeping it evicts nothing
	remoteSubBlocks = remoteBytes / subBlock
	remoteBlocks    = remoteBytes / cacheBlock
)

// pgasRemote runs body on rank 0 of a two-node runtime with remote set to
// the start of remoteBytes of global memory homed on rank 1. The cache is
// the workloads' except for prefetch, which would turn the miss driver's
// sweep into hits.
func pgasRemote(body func(l *pgas.Local, remote pgas.Addr) time.Duration) time.Duration {
	cache := cacheConfig()
	cache.PrefetchBlocks = 0
	rt := ityr.NewRuntime(ityr.Config{Ranks: 2, CoresPerNode: 1, Pgas: cache})
	var took time.Duration
	must(rt.Run(func(s *ityr.SPMD) {
		if s.Rank() != 0 {
			return
		}
		base := s.AllocCollective(2*remoteBytes, ityr.BlockDist)
		remote := base + remoteBytes
		if home, err := rt.Space().HomeRank(remote); err != nil || home != 1 {
			panic(fmt.Sprintf("benchmark: remote region homed on rank %d (%v), want 1", home, err))
		}
		took = body(s.Local(), remote)
	}))
	return took
}

// checkoutIn checks one sub-block out and straight back in.
func checkoutIn(l *pgas.Local, addr pgas.Addr, mode pgas.Mode) {
	if _, err := l.Checkout(addr, subBlock, mode); err != nil {
		panic(err)
	}
	must(l.Checkin(addr, subBlock, mode))
}

// forkJoinTrees forks binary trees of 2^treeDepth empty leaves until n
// forks are done, timing the root thread's body.
func forkJoinTrees(sc scale, ranks, n int) (time.Duration, int) {
	perTree := 1<<sc.treeDepth - 1
	trees := n/perTree + 1
	rt := ityr.NewRuntime(ityr.Config{Ranks: ranks, CoresPerNode: 8, Pgas: cacheConfig(), Seed: 11})
	var took time.Duration
	_, err := rt.RunRoot(func(c *ityr.Ctx) {
		t := time.Now()
		for i := 0; i < trees; i++ {
			forkTree(c, sc.treeDepth)
		}
		took = time.Since(t)
	})
	must(err)
	return took, trees * perTree
}

func forkTree(c *ityr.Ctx, depth int) {
	if depth == 0 {
		return
	}
	th := c.Fork(func(c *ityr.Ctx) { forkTree(c, depth-1) })
	forkTree(c, depth-1)
	c.Join(th)
}

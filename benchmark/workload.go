package main

import (
	"fmt"
	"syscall"
	"time"

	"ityr"
	"ityr/internal/apps/cilksort"
	"ityr/internal/apps/halo"
	"ityr/internal/apps/uts"
	"ityr/internal/profile"
	"ityr/internal/sim"
)

// Layer counts, read from the runtime's public stats accessors at the two
// edges of the timed phase. Everything here is simulated behaviour on the
// serial engine, so a pass must reproduce the first pass's values exactly.
const (
	cSimEvents = iota
	cSimHandoffs
	cSimFastAdvances
	cRmaGetOps
	cRmaPutOps
	cRmaAtomicOps
	cRmaBytes
	cRmaFlushWaits
	cRmaBarriers
	cPgasCheckoutCalls
	cPgasFetchOps
	cPgasFetchBytes
	cPgasHitBytes
	cPgasWritebackOps
	cPgasWritebackBytes
	cPgasEvictions
	cPgasPrefetchHits
	cPgasPrefetchedBlocks
	cUthForks
	cUthSteals
	cUthFailedSteals
	cUthMigrations
	nCounts
)

type counts [nCounts]uint64

func readCounts(rt *ityr.Runtime) counts {
	es, cs, ps, bs, us := rt.Engine().Stats(), rt.Comm().Stats(), rt.Space().Stats, rt.Space().Batch, rt.Sched().Stats
	return counts{
		cSimEvents: es.Events, cSimHandoffs: es.Handoffs, cSimFastAdvances: es.FastAdvances,
		cRmaGetOps: cs.GetOps, cRmaPutOps: cs.PutOps, cRmaAtomicOps: cs.AtomicOps,
		cRmaBytes: cs.GetBytes + cs.PutBytes, cRmaFlushWaits: cs.FlushWaits, cRmaBarriers: cs.Barriers,
		cPgasCheckoutCalls: ps.CheckoutCalls, cPgasFetchOps: ps.FetchOps, cPgasFetchBytes: ps.FetchBytes,
		cPgasHitBytes: ps.HitBytes, cPgasWritebackOps: ps.WriteBackOps, cPgasWritebackBytes: ps.WriteBackBytes,
		cPgasEvictions: ps.Evictions, cPgasPrefetchHits: bs.PrefetchHits, cPgasPrefetchedBlocks: bs.PrefetchedBlocks,
		cUthForks: us.Forks, cUthSteals: us.Steals, cUthFailedSteals: us.FailedSteals, cUthMigrations: us.Migrations,
	}
}

func (c counts) sub(o counts) counts {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

// simShare is the Config.Profile rollup of simulated time by span kind.
type simShare struct{ task, steal, idle, stall, barrier uint64 }

func (s simShare) sub(o simShare) simShare {
	return simShare{s.task - o.task, s.steal - o.steal, s.idle - o.idle, s.stall - o.stall, s.barrier - o.barrier}
}

func readShare(p *profile.Profile) simShare {
	if p == nil {
		return simShare{}
	}
	r := p.Snapshot().Rollup
	return simShare{r.TaskNs, r.StealNs, r.IdleNs, r.StallNs, r.BarrierNs}
}

// edge is what the harness samples at each end of the timed phase.
type edge struct {
	at     time.Time
	cpu    time.Duration
	counts counts
	share  simShare
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pass is one execution of a workload: a fresh runtime, set-up, the timed
// phase, and the facts the output check needs. A workload's run function
// calls start and stop on rank 0 (or, for halo, around halo.Run) at the
// edges of the timed phase; on the serial engine one simulated goroutine
// runs at a time, so reading the layers' stats there is race-free.
type pass struct {
	begin     time.Time // before NewRuntime
	from, to  edge
	simNs     sim.Time
	output    string // what the check compares: "sorted", a node count, a digest
	simResult string // must equal the first pass's
}

func (p *pass) start(rt *ityr.Runtime) {
	// The stats reads sit on the set-up side of the clock.
	p.from = edge{counts: readCounts(rt), share: readShare(rt.Profile()), cpu: cpuTime()}
	p.from.at = time.Now()
}

func (p *pass) stop(rt *ityr.Runtime) {
	p.to.at = time.Now()
	p.to.cpu = cpuTime()
	p.to.counts = readCounts(rt)
	p.to.share = readShare(rt.Profile())
}

func (p *pass) setup() time.Duration { return p.from.at.Sub(p.begin) }
func (p *pass) timed() time.Duration { return p.to.at.Sub(p.from.at) }
func (p *pass) counts() counts       { return p.to.counts.sub(p.from.counts) }

// knobs are the per-pass settings the harness varies; the workload's own
// parameters never change within a scale.
type knobs struct {
	seed      int64
	profile   bool // Config.Profile on: the traced run's profiled passes
	hostProcs int  // engine shards; 1 everywhere except the sim.shard2_speedup pass
	maxProcs  int  // GOMAXPROCS while the pass runs; 1 except in the two comparisons
}

// workload is one benchmark input. want is the pinned expected output
// ("" where the check is a property of the output, as for sortedness).
type workload struct {
	name  string
	ranks int
	run   func(k knobs, p *pass) error
	want  string
}

// cacheConfig is the paper-like cache geometry every PGAS workload and
// micro-driver shares: 64 KiB blocks, 4 KiB sub-blocks, 16 MiB cache,
// lazy write-back, coalescing on, prefetch depth 2.
func cacheConfig() ityr.PgasConfig {
	return ityr.PgasConfig{
		BlockSize:         64 << 10,
		SubBlockSize:      4 << 10,
		CacheSize:         16 << 20,
		Policy:            ityr.WriteBackLazy,
		CoalesceWriteBack: true,
		PrefetchBlocks:    2,
	}
}

func runtimeConfig(ranks int, k knobs) ityr.Config {
	return ityr.Config{
		Ranks:        ranks,
		CoresPerNode: 8,
		Pgas:         cacheConfig(),
		Seed:         k.seed,
		Profile:      k.profile,
		HostProcs:    k.hostProcs,
	}
}

// sortWorkload is cilksort.Sort of n elements: set-up allocates the two
// arrays and generates the input from the seed, the timed phase sorts, the
// check walks the array in a third fork-join region after the clock stops.
func sortWorkload(name string, ranks int, n, cutoff int64) workload {
	return workload{name: name, ranks: ranks, want: "sorted", run: func(k knobs, p *pass) error {
		rt := ityr.NewRuntime(runtimeConfig(ranks, k))
		sorted := false
		err := rt.Run(func(s *ityr.SPMD) {
			var a, b ityr.GSpan[cilksort.Elem]
			if s.Rank() == 0 {
				a = ityr.AllocArraySPMD[cilksort.Elem](s, n, ityr.BlockCyclicDist)
				b = ityr.AllocArraySPMD[cilksort.Elem](s, n, ityr.BlockCyclicDist)
			}
			s.Barrier()
			s.RootExec(func(c *ityr.Ctx) { cilksort.Generate(c, a, uint64(k.seed)) })
			t0 := s.Now()
			if s.Rank() == 0 {
				p.start(rt)
			}
			s.RootExec(func(c *ityr.Ctx) { cilksort.Sort(c, a, b, cutoff) })
			if s.Rank() == 0 {
				p.stop(rt)
				p.simNs = s.Now() - t0
			}
			s.RootExec(func(c *ityr.Ctx) { sorted = cilksort.IsSorted(c, a) })
		})
		p.output = "unsorted"
		if sorted {
			p.output = "sorted"
		}
		p.simResult = fmt.Sprint(p.simNs)
		return err
	}}
}

// utsWorkload traverses a UTS tree that set-up built in global memory.
func utsWorkload(name string, ranks int, tree uts.Tree, nodes int64) workload {
	return workload{name: name, ranks: ranks, want: fmt.Sprint(nodes), run: func(k knobs, p *pass) error {
		rt := ityr.NewRuntime(runtimeConfig(ranks, k))
		var visited int64
		err := rt.Run(func(s *ityr.SPMD) {
			var root ityr.GPtr[uts.Node]
			s.RootExec(func(c *ityr.Ctx) { root, _ = uts.Build(c, tree) })
			t0 := s.Now()
			if s.Rank() == 0 {
				p.start(rt)
			}
			s.RootExec(func(c *ityr.Ctx) { visited = uts.Traverse(c, root) })
			if s.Rank() == 0 {
				p.stop(rt)
				p.simNs = s.Now() - t0
			}
		})
		p.output = fmt.Sprint(visited)
		p.simResult = fmt.Sprint(p.simNs)
		return err
	}}
}

// haloWorkload is halo.Run, which owns its runtime: set-up ends at the
// Observe hook (NewRuntime done, nothing simulated yet) and the timed
// phase is the rest of the call.
func haloWorkload(name string, ranks, cells, steps int, digest string) workload {
	return workload{name: name, ranks: ranks, want: digest, run: func(k knobs, p *pass) error {
		var rt *ityr.Runtime
		res, err := halo.Run(halo.Config{
			Ranks:        ranks,
			CoresPerNode: 8,
			CellsPerRank: cells,
			Steps:        steps,
			HostProcs:    k.hostProcs,
			Profile:      k.profile,
			Observe:      func(r *ityr.Runtime) { rt = r; p.start(r) },
		})
		if err != nil {
			return err
		}
		p.stop(rt)
		p.simNs = res.Elapsed
		p.output = res.Digest()
		p.simResult = p.output
		return nil
	}}
}

// scale is a full set of workload sizes plus the harness's own sizes.
type scale struct {
	workloads []workload
	passes    int           // timed passes of a run; 0 runs them until the clock says stop
	bigRanks  int           // rank count of the 4,096-rank micro-drivers
	treeDepth int           // uth fork-join tree: 2^treeDepth leaves
	unitFloor time.Duration // the shortest a micro-driver repeat is sized to, however little of the run is left
	tracedN   int           // passes with Config.Profile on in a traced run
	probeLaps int           // size of the host-speed probe
}

const (
	haloDigest     = "elapsed=938431 checksum=411f4b4b024ba2ab fnv=0349fc842a5f2de7"
	haloDigestTiny = "elapsed=72133 checksum=40804a3f9fcddf1b fnv=258fe50e00bf110f"
)

var fullScale = scale{
	workloads: []workload{
		sortWorkload("cilksort-64r", 64, 1<<20, 1<<10),
		utsWorkload("utsmem-64r", 64, uts.T1LPrime, 87716),
		haloWorkload("halo-4096r", 4096, 256, 30, haloDigest),
		sortWorkload("forkjoin-4096r", 4096, 1<<18, 16<<10),
	},
	bigRanks:  4096,
	treeDepth: 16,
	unitFloor: 20 * time.Millisecond,
	tracedN:   3,
	probeLaps: probeLaps,
}

var tinyTree = uts.Tree{Name: "tiny", Seed: 5, RootKids: 60, MeanKids: 0.9, MaxDepth: 100}

// tinyScale keeps every code path of the harness and shrinks every size,
// for bench_test.go.
var tinyScale = scale{
	workloads: []workload{
		sortWorkload("cilksort-64r", 8, 1<<12, 1<<8),
		utsWorkload("utsmem-64r", 8, tinyTree, uts.CountHost(tinyTree)),
		haloWorkload("halo-4096r", 64, 16, 4, haloDigestTiny),
		sortWorkload("forkjoin-4096r", 64, 1<<12, 1<<10),
	},
	passes:    2,
	bigRanks:  64,
	treeDepth: 6,
	unitFloor: time.Millisecond,
	tracedN:   1,
	probeLaps: 2,
}

func (s scale) find(name string) (workload, bool) {
	for _, w := range s.workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Package core assembles the Itoyori runtime: the cached PGAS layer
// (internal/pgas) underneath the child-first distributed work-stealing
// scheduler (internal/uth), with release/acquire fences inserted at
// fork-join points exactly as Fig. 5 of the paper prescribes, and the lazy
// release protocol of Fig. 6 driven from the scheduler's polling points.
//
// This is the paper's primary contribution; the public ityr package at the
// module root re-exports it with typed (generic) helpers.
package core

import (
	"fmt"
	"io"

	"ityr/internal/fault"
	"ityr/internal/netmodel"
	"ityr/internal/pgas"
	"ityr/internal/profile"
	"ityr/internal/rma"
	"ityr/internal/sim"
	"ityr/internal/trace"
	"ityr/internal/uth"
)

// Config assembles the whole simulated machine and runtime.
type Config struct {
	// Ranks is the total number of workers (one process per core).
	Ranks int
	// CoresPerNode groups ranks into nodes (48 in the paper's machine).
	CoresPerNode int
	// Net overrides the network model (defaults to netmodel.Default).
	Net *netmodel.Params
	// Pgas tunes the cache system (block size, cache size, policy...).
	Pgas pgas.Config
	// Sched tunes the work-stealing scheduler.
	Sched uth.Config
	// Seed seeds schedule randomness; same seed ⇒ identical run.
	Seed int64
	// Trace enables event tracing (Runtime.Trace): task segments and
	// fork/join edges, steal and fence spans, and cache events with
	// virtual timestamps.
	Trace bool
	// TraceRing bounds the trace to the most recent TraceRing events per
	// rank (ring buffer); 0 keeps everything.
	TraceRing int
	// Profile enables the constant-memory streaming profile
	// (internal/profile): online per-rank rollups, the locality-tiered
	// communication matrix and the occupancy timeline, all O(1) state per
	// rank. Independent of Trace — at large rank counts it is the layer
	// that still fits when span rings cannot — and digest-inert: recording
	// never advances virtual time, so simulated results are bit-identical
	// with it on or off.
	Profile bool

	HostProcs int // ignored; kept only for the frozen benchmark module; removed by ROADMAP 7(d)

	// Faults, when non-nil, arms the deterministic fault-injection plan
	// (in one call, rma.Comm.SetFaults): link-degradation windows on
	// remote ops, transient RMA failures with retry/backoff, ranks slowed
	// for the whole run (stragglers), and silent data corruption of task
	// results, drawn by Ctx.Protected. Runs with the same plan (same
	// seed) are bit-identical; a nil plan leaves every hot path at a
	// single nil-check.
	Faults *fault.Plan
	// SDC, when non-nil, arms the silent-data-corruption defenses:
	// selective task replication with digest compare on Protected
	// segments (SDC.Replicate of them re-execute on a replica rank).
	// Orthogonal to Faults: defenses without a corruption plan measure
	// pure overhead; a corruption plan without defenses is the negative
	// control whose flips reach program output. Nil keeps every hot path
	// at a nil-check, adding zero simulated-time events (digest-pinned).
	SDC *SDCConfig
}

func (c Config) withDefaults() Config {
	if c.Ranks == 0 {
		c.Ranks = 1
	}
	if c.CoresPerNode == 0 {
		c.CoresPerNode = 8
	}
	return c
}

// Runtime is one simulated Itoyori instance: engine, interconnect, global
// address space and scheduler.
type Runtime struct {
	cfg   Config
	eng   *sim.Engine
	comm  *rma.Comm
	space *pgas.Space
	sched *uth.Sched
	rec   *trace.Recorder
	inj   *fault.Injector
	repl  *replicator
}

// NewRuntime builds a runtime from cfg.
func NewRuntime(cfg Config) *Runtime {
	cfg = cfg.withDefaults()
	net := netmodel.Default(cfg.CoresPerNode)
	if cfg.Net != nil {
		net = *cfg.Net
		net.CoresPerNode = cfg.CoresPerNode
	}
	eng := sim.NewEngine()
	comm := rma.New(eng, cfg.Ranks, net)
	var inj *fault.Injector
	if cfg.Faults != nil {
		inj = fault.NewInjector(*cfg.Faults, cfg.Ranks)
		comm.SetFaults(inj) // the whole plan: links, failures, stragglers
	}
	// One recorder serves every layer; the ones built below take it from comm.
	var tl *trace.Log
	if cfg.Trace {
		tl = trace.NewRing(cfg.TraceRing)
	}
	var stream *profile.Profile
	if cfg.Profile {
		stream = profile.New(cfg.Ranks, net)
	}
	rec := trace.NewRecorder(cfg.Ranks, tl, stream)
	comm.SetRecorder(rec)
	space := pgas.New(comm, cfg.Pgas)
	cfg.Pgas = space.Config() // the cache defaults have one owner: pgas
	sched := uth.NewSched(comm, cfg.Sched, cfg.Seed, hooks{space: space})
	if cfg.Pgas.Validate {
		// Validator diagnostics name the task segment running on the
		// offending rank; the scheduler records which thread holds it.
		space.TaskOf = sched.CurrentTID
	}
	// Task replication exists whenever defenses are configured OR a plan
	// can corrupt task results: the latter case (defenses off) still needs
	// its ledger, which MetricsSnapshot reports the escapes through, for
	// the negative control. Without SDC config it draws nothing, so arming
	// it moves no simulated number. Its seed decorrelates selection from
	// the scheduler's victim streams.
	var repl *replicator
	if cfg.SDC != nil || (inj != nil && inj.TaskArmed()) {
		repl = newReplicator(cfg.Ranks, cfg.SDC, cfg.Seed+1)
	}
	return &Runtime{cfg: cfg, eng: eng, comm: comm, space: space, sched: sched,
		rec: rec, inj: inj, repl: repl}
}

// Injector returns the armed fault injector (nil unless Config.Faults).
func (rt *Runtime) Injector() *fault.Injector { return rt.inj }

// Trace returns the event log (nil unless Config.Trace was set).
func (rt *Runtime) Trace() *trace.Log { return rt.rec.Log() }

// Profile returns the streaming profile collector (nil unless
// Config.Profile was set).
func (rt *Runtime) Profile() *profile.Profile { return rt.rec.Profile() }

// WriteProfile writes the streaming-profile snapshot as indented
// "itoyori-profile/v1" JSON. It fails when profiling was not enabled.
func (rt *Runtime) WriteProfile(w io.Writer) error {
	if rt.Profile() == nil {
		return fmt.Errorf("core: profiling was not enabled (Config.Profile)")
	}
	return rt.Profile().Snapshot().WriteJSON(w)
}

// MetricsSnapshot returns the run's "itoyori-metrics/v1" document: the
// layers' Stats structs as counters and the recorder's live histograms
// (steal latency, fence costs, checkout sizes). Optional subsystems add
// their keys only when armed, so a run without them keeps the key set it
// has always had.
func (rt *Runtime) MetricsSnapshot() trace.MetricsDoc {
	es, cs, ps, bs, us := rt.eng.Stats(), rt.comm.Stats(), rt.space.Stats, rt.space.Batch, rt.sched.Stats
	c := map[string]uint64{
		"sim_events_dispatched": es.Events,
		"sim_fast_advances":     es.FastAdvances,
		"sim_handoffs":          es.Handoffs,
		"sim_callbacks":         es.Callbacks,
		"sim_spawns":            es.Spawns,

		"rma_get_ops":        cs.GetOps,
		"rma_put_ops":        cs.PutOps,
		"rma_atomic_ops":     cs.AtomicOps,
		"rma_get_bytes":      cs.GetBytes,
		"rma_put_bytes":      cs.PutBytes,
		"rma_flush_waits":    cs.FlushWaits,
		"rma_barriers":       cs.Barriers,
		"rma_retries":        cs.Retries,
		"rma_retry_stall_ns": cs.RetryNs,

		"pgas_checkout_calls":  ps.CheckoutCalls,
		"pgas_checkin_calls":   ps.CheckinCalls,
		"pgas_fetch_ops":       ps.FetchOps,
		"pgas_fetch_bytes":     ps.FetchBytes,
		"pgas_hit_bytes":       ps.HitBytes,
		"pgas_writeback_ops":   ps.WriteBackOps,
		"pgas_writeback_bytes": ps.WriteBackBytes,
		"pgas_invalidations":   ps.Invalidations,
		"pgas_mmaps":           ps.Mmaps,
		"pgas_evictions":       ps.Evictions,
		"pgas_lazy_releases":   ps.LazyReleases,

		// Write-back coalescing: runs and bytes shipped in merged Puts.
		"pgas_wb_runs_merged":     bs.WBRunsMerged,
		"pgas_wb_coalesced_bytes": bs.WBCoalescedBytes,

		"uth_forks":            us.Forks,
		"uth_steals":           us.Steals,
		"uth_intra_steals":     us.IntraSteals,
		"uth_failed_steals":    us.FailedSteals,
		"uth_migrations":       us.Migrations,
		"uth_steal_timeouts":   us.StealTimeouts,
		"uth_steal_blacklists": us.Blacklists,
		"uth_blacklist_skips":  us.BlacklistSkips,
	}
	if rt.Trace() != nil {
		c["trace_dropped_spans"] = rt.Trace().Dropped()
	}
	if rt.space.Validating() {
		c["pgas_validator_violations"] = uint64(len(rt.space.Violations()))
	}
	if rt.inj != nil {
		fs := rt.inj.Stats()
		c["fault_injected_failures"] = fs.Injected
		for i, v := range rt.comm.RetriesByRank() {
			c[fmt.Sprintf("rma_retries_rank_%02d", i)] = v
		}
	}
	// SDC: the replication ledger; the per-rank injected-vs-detected
	// pairs feed the itytrace resilience table.
	if p := rt.repl; p != nil {
		c["sdc_protected_tasks"] = p.protected
		c["replica_tasks"] = p.replicas
		c["sdc_detected"] = p.detected
		c["sdc_recovered"] = p.recovered
		c["sdc_escaped"] = p.escaped
		if rt.inj != nil {
			c["sdc_injected_flips"] = rt.inj.Stats().TaskFlips
			for i, v := range rt.inj.TaskFlipsByRank() {
				c[fmt.Sprintf("sdc_injected_rank_%02d", i)] = v
				c[fmt.Sprintf("sdc_detected_rank_%02d", i)] = p.detectedBy[i]
				c[fmt.Sprintf("sdc_escaped_rank_%02d", i)] = p.escapedBy[i]
			}
		}
	}
	return trace.MetricsDoc{
		Schema:     trace.MetricsSchema,
		Labels:     map[string]string{"policy": rt.space.Policy().String()},
		Counters:   c,
		Gauges:     map[string]int64{"ranks": int64(rt.cfg.Ranks), "cores_per_node": int64(rt.cfg.CoresPerNode)},
		Histograms: rt.rec.Histograms(),
	}
}

// WriteMetrics writes the metrics snapshot as indented JSON.
func (rt *Runtime) WriteMetrics(w io.Writer) error {
	return rt.MetricsSnapshot().WriteJSON(w)
}

// WriteTrace serializes the trace as an "itytrace/v1" dump for
// cmd/itytrace, embedding the run's metrics snapshot in the metadata. It
// fails when tracing was not enabled.
func (rt *Runtime) WriteTrace(w io.Writer) error {
	if rt.Trace() == nil {
		return fmt.Errorf("core: tracing was not enabled (Config.Trace)")
	}
	metrics := rt.MetricsSnapshot()
	m := trace.Meta{
		Ranks:        rt.cfg.Ranks,
		CoresPerNode: rt.cfg.CoresPerNode,
		Policy:       rt.space.Policy().String(),
		Metrics:      &metrics,
	}
	if rt.Profile() != nil {
		m.Profile = rt.Profile().Snapshot()
	}
	if rt.space.Validating() {
		m.Validator = &trace.ValidatorDoc{Schema: trace.ValidatorSchema, Violations: rt.space.Violations()}
	}
	return rt.Trace().WriteDump(w, m)
}

// hooks wires the scheduler's synchronization points to the cache
// coherence fences (Fig. 5 placement, Fig. 6 lazy protocol). The fences
// time and report themselves, so each appears on the timeline as one span.
type hooks struct{ space *pgas.Space }

func (h hooks) Poll(rank int)             { h.space.Local(rank).Poll() }
func (h hooks) PollPending(rank int) bool { return h.space.Local(rank).PollPending() }
func (h hooks) OnFork(rank int) any       { return h.space.Local(rank).ReleaseLazy() }
func (h hooks) OnSteal(rank int, handler any) {
	hd, _ := handler.(pgas.ReleaseHandler)
	h.space.Local(rank).AcquireWith(hd)
}
func (h hooks) OnSuspend(rank int)         { h.space.Local(rank).ReleaseFenceAt(0) }
func (h hooks) OnChildStolenDone(rank int) { h.space.Local(rank).ReleaseFenceAt(1) }
func (h hooks) OnMigrateArrive(rank int)   { h.space.Local(rank).AcquireFence() }

// Engine returns the simulation engine.
func (rt *Runtime) Engine() *sim.Engine { return rt.eng }

// Comm returns the communicator.
func (rt *Runtime) Comm() *rma.Comm { return rt.comm }

// Space returns the global address space.
func (rt *Runtime) Space() *pgas.Space { return rt.space }

// Sched returns the scheduler.
func (rt *Runtime) Sched() *uth.Sched { return rt.sched }

// Profiler returns the always-on Fig. 9 category totals.
func (rt *Runtime) Profiler() *trace.Categories { return rt.rec.Categories() }

// Config returns the runtime configuration after defaulting: Ranks and
// CoresPerNode as the runtime filled them in, and Pgas as the cache layer
// did (pgas.Space.Config), so a caller reads the block and cache sizes in
// force, never a zero left for a default.
func (rt *Runtime) Config() Config { return rt.cfg }

// Run executes spmd once per rank (the program's SPMD mode, as launched by
// mpiexec) and drives the simulation to completion.
func (rt *Runtime) Run(spmd func(s *SPMD)) error {
	for i := 0; i < rt.cfg.Ranks; i++ {
		r := rt.comm.Rank(i)
		s := &SPMD{rt: rt, rank: i, local: rt.space.Local(i)}
		rt.eng.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			r.Attach(p)
			spmd(s)
		})
	}
	err := rt.eng.Run()
	// No process runs again, parked ones included: the cache storage can go
	// back to the pool for the next runtime.
	rt.space.ReleaseCaches()
	return err
}

// RunRoot is the common pattern: enter the fork-join region immediately and
// run body as the root thread. It returns the virtual time the region took.
func (rt *Runtime) RunRoot(body func(c *Ctx)) (sim.Time, error) {
	var elapsed sim.Time
	err := rt.Run(func(s *SPMD) {
		start := s.Now()
		s.RootExec(body)
		if s.Rank() == 0 {
			elapsed = s.Now() - start
		}
	})
	return elapsed, err
}

// SPMD is a rank's handle during the SPMD region.
type SPMD struct {
	rt    *Runtime
	rank  int
	local *pgas.Local
}

// Rank returns the rank number.
func (s *SPMD) Rank() int { return s.rank }

// NRanks returns the total number of ranks.
func (s *SPMD) NRanks() int { return s.rt.cfg.Ranks }

// Now returns the rank's current virtual time.
func (s *SPMD) Now() sim.Time { return s.local.Rank().Proc().Now() }

// Local returns the rank's PGAS handle for SPMD-mode memory access.
func (s *SPMD) Local() *pgas.Local { return s.local }

// Barrier synchronizes all ranks (SPMD mode only).
func (s *SPMD) Barrier() { s.local.Rank().Barrier() }

// Flush waits until every one-sided operation the rank issued is complete.
func (s *SPMD) Flush() { s.local.Rank().Flush() }

// Charge advances the rank's virtual time by d, modelling local computation.
// The time is banked (sim.Proc.Charge): the rank's next call into the
// runtime takes it.
func (s *SPMD) Charge(d sim.Time) { s.local.Rank().Proc().Charge(d) }

// Win is a one-sided memory window for the SPMD region: an equal-sized
// segment per rank (MPI_Win_allocate). An op acts as the rank it is given.
type Win struct{ w *rma.Win }

// NewWin creates a window of size bytes per rank, zeroed. Call it before
// Run; creating it costs no simulated time.
func (rt *Runtime) NewWin(size int) *Win { return &Win{rt.comm.NewUniformWin(size)} }

// Seg returns the calling rank's own segment, read and written directly.
// Other ranks' Puts land in it, so the rank's banked charges are taken
// first.
func (w *Win) Seg(s *SPMD) []byte {
	s.local.Rank().Proc().Sync()
	return w.w.Seg(s.rank)
}

// PutUint64 starts a nonblocking little-endian write of v at byte off of
// target's segment, complete after the caller's next Flush. An out-of-range
// target or offset panics (rma.ErrRankOutOfRange, rma.ErrOutOfRange).
func (w *Win) PutUint64(s *SPMD, v uint64, target, off int) {
	w.w.PutUint64(s.local.Rank(), v, target, off)
}

// AllocCollective allocates distributed global memory; call on rank 0
// (it is modelled as a collective with every rank participating).
func (s *SPMD) AllocCollective(size uint64, d pgas.DistPolicy) pgas.Addr {
	return s.local.AllocCollective(size, d)
}

// RootExec switches from the SPMD region to the fork-join region: rank 0
// runs body as the root thread while every rank participates in work
// stealing. All ranks return when the root completes, with a consistent
// global memory view.
func (s *SPMD) RootExec(body func(c *Ctx)) {
	s.rt.sched.WorkerMain(s.rank, func(tb *uth.TB) {
		body(&Ctx{rt: s.rt, tb: tb})
	})
}

// Ctx is the handle a thread uses inside the fork-join region. It is valid
// only on the thread it was given to; the rank it refers to follows the
// thread across migrations.
type Ctx struct {
	rt *Runtime
	tb *uth.TB
}

// RankID returns the rank currently executing this thread (may change
// across Fork/Join).
func (c *Ctx) RankID() int { return c.tb.RankID() }

// Runtime returns the runtime.
func (c *Ctx) Runtime() *Runtime { return c.rt }

// Local returns the executing rank's PGAS handle. Do not cache it across
// Fork/Join calls: the thread may migrate.
func (c *Ctx) Local() *pgas.Local { return c.rt.space.Local(c.tb.RankID()) }

// Now returns the current virtual time.
func (c *Ctx) Now() sim.Time { return c.tb.Proc().Now() }

// Charge advances virtual time by d, modelling local computation. The time
// is banked (sim.Proc.Charge): the thread's next call into the runtime
// takes it.
func (c *Ctx) Charge(d sim.Time) { c.tb.Proc().Charge(d) }

// ChargeAs advances virtual time by d and attributes it to the named
// profiler category (e.g. "Serial Quicksort" in Fig. 9).
func (c *Ctx) ChargeAs(cat string, d sim.Time) {
	t0 := c.Now()
	c.tb.Proc().Charge(d)
	c.rt.rec.SpanAs(cat, c.tb.RankID(), trace.KCompute, t0, d, 0, 0)
}

// Yield lets long-running leaf code service lazy-release polls.
func (c *Ctx) Yield() { c.tb.Yield() }

// Checkout claims [addr, addr+size) in the given mode, returning a view.
// Checkout, MustCheckout and Checkin panic, naming both processes, when
// made through a Ctx whose thread is not the one running — a child using
// its parent's — which would otherwise run as whatever thread holds the
// rank.
func (c *Ctx) Checkout(addr pgas.Addr, size uint64, mode pgas.Mode) ([]byte, error) {
	c.tb.Proc().MustRun("Checkout")
	return c.Local().Checkout(addr, size, mode)
}

// MustCheckout is Checkout that panics on error, for workloads whose
// accesses are statically known to fit the cache. The panic value is an
// error wrapping Checkout's (a validator refusal is errors.Is
// pgas.ErrViolation).
func (c *Ctx) MustCheckout(addr pgas.Addr, size uint64, mode pgas.Mode) []byte {
	v, err := c.Checkout(addr, size, mode)
	if err != nil {
		panic(fmt.Errorf("core: checkout(%#x,%d,%v): %w", addr, size, mode, err))
	}
	return v
}

// Checkin completes the matching Checkout. It panics with an error
// wrapping the cache's when the checkin does not match one.
func (c *Ctx) Checkin(addr pgas.Addr, size uint64, mode pgas.Mode) {
	c.tb.Proc().MustRun("Checkin")
	if err := c.Local().Checkin(addr, size, mode); err != nil {
		panic(fmt.Errorf("core: %w", err))
	}
}

// AllocLocal allocates from the executing rank's noncollective heap.
func (c *Ctx) AllocLocal(size uint64) pgas.Addr { return c.Local().AllocLocal(size) }

// FreeLocal frees a noncollective allocation. A free of memory that is not
// allocated (a double free included) panics with an error wrapping
// pgas.ErrBadFree.
func (c *Ctx) FreeLocal(addr pgas.Addr, size uint64) {
	if err := c.Local().FreeLocal(addr, size); err != nil {
		panic(fmt.Errorf("core: free(%#x,%d): %w", addr, size, err))
	}
}

// Thread is a forked child handle.
type Thread = uth.Thread

// Fork spawns fn as a child thread; the scheduling policy decides who runs
// next (child-first: the child, with this continuation stealable;
// help-first, FBC: this thread). Any checkouts must be checked in before
// calling Fork (threads can migrate here).
func (c *Ctx) Fork(fn func(*Ctx)) *Thread {
	c.assertNoCheckouts("Fork")
	rt := c.rt
	return c.tb.Fork(func(tb *uth.TB) {
		fn(&Ctx{rt: rt, tb: tb})
	})
}

// Join waits for a forked child; the thread may resume on another rank.
func (c *Ctx) Join(t *Thread) {
	c.assertNoCheckouts("Join")
	c.tb.Join(t)
}

func (c *Ctx) assertNoCheckouts(op string) {
	if n := c.Local().OutstandingCheckouts(); n != 0 {
		panic(fmt.Sprintf("core: %s with %d outstanding checkout(s); checkouts must not span fork-join points (§3.3)", op, n))
	}
}

// ParallelInvoke forks all closures but the last, runs the last inline, and
// joins — the parallel_invoke() of Fig. 1.
func (c *Ctx) ParallelInvoke(fns ...func(*Ctx)) {
	if len(fns) == 0 {
		return
	}
	ths := make([]*Thread, len(fns)-1)
	for i := 0; i < len(fns)-1; i++ {
		ths[i] = c.Fork(fns[i])
	}
	fns[len(fns)-1](c)
	for _, th := range ths {
		c.Join(th)
	}
}

// ParallelFor recursively splits [lo, hi) until ranges are at most grain
// long, then runs body on each leaf range in parallel. This is the
// range-based high-level pattern of §3.3 that also keeps each leaf's
// checkouts within cache capacity.
func (c *Ctx) ParallelFor(lo, hi, grain int64, body func(c *Ctx, lo, hi int64)) {
	if grain < 1 {
		grain = 1
	}
	if hi-lo <= grain {
		body(c, lo, hi)
		return
	}
	mid := lo + (hi-lo)/2
	th := c.Fork(func(c *Ctx) { c.ParallelFor(lo, mid, grain, body) })
	c.ParallelFor(mid, hi, grain, body)
	c.Join(th)
}

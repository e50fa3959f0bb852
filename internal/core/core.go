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
	"encoding/json"
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

	// Faults, when non-nil, arms the deterministic fault-injection plan:
	// link-degradation windows in the network model, transient RMA
	// failures with retry/backoff, straggler windows scheduled as engine
	// callbacks, and silent-data-corruption streams. Runs with the same
	// plan (same seed) are bit-identical; a nil plan leaves every hot
	// path at a single nil-check.
	Faults *fault.Plan
	// SDC, when non-nil, arms the silent-data-corruption defenses:
	// selective task replication with digest compare on Protected
	// segments (SDC.Replicate of them re-execute on a replica rank) and
	// the RMA layer's end-to-end payload checksum (corrupted bulk
	// transfers retransmit instead of landing silently). Orthogonal to
	// Faults: defenses without a corruption plan measure pure overhead; a
	// corruption plan without defenses is the negative control whose
	// flips reach program output. Nil keeps every hot path at a
	// nil-check, adding zero simulated-time events (digest-pinned).
	SDC *uth.SDCConfig
}

func (c Config) withDefaults() Config {
	if c.Ranks == 0 {
		c.Ranks = 1
	}
	if c.CoresPerNode == 0 {
		c.CoresPerNode = 8
	}
	if c.Seed != 0 && c.Sched.Seed == 0 {
		c.Sched.Seed = c.Seed
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
	prot  *uth.Protector
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
	var inj *fault.Injector
	if cfg.Faults != nil {
		inj = fault.NewInjector(*cfg.Faults, cfg.Ranks)
		net.Perturb = inj // link-degradation windows
	}
	comm := rma.New(eng, cfg.Ranks, net)
	if inj != nil {
		comm.SetFaults(inj) // transient RMA failures
		// Straggler windows: engine callbacks flip each rank's time scale
		// at the window boundaries (scheduled now, at virtual time zero,
		// so they precede all process resumes at the same instants).
		for _, sw := range inj.Plan().Stragglers {
			if sw.Rank < 0 || sw.Rank >= cfg.Ranks {
				continue
			}
			r := comm.Rank(sw.Rank)
			num, den := sw.Num, sw.Den
			eng.At(sw.From, func() { r.SetSlowdown(num, den) })
			if sw.To > sw.From {
				eng.At(sw.To, func() { r.SetSlowdown(0, 0) })
			}
		}
	}
	// One recorder serves every layer; the ones built below take it from comm.
	var tl *trace.Log
	if cfg.Trace {
		tl = trace.NewRing(cfg.TraceRing)
		tl.CoresPerNode = cfg.CoresPerNode
	}
	var stream *profile.Profile
	if cfg.Profile {
		stream = profile.New(cfg.Ranks, net)
	}
	rec := trace.NewRecorder(cfg.Ranks, tl, stream)
	comm.SetRecorder(rec)
	space := pgas.New(comm, cfg.Pgas)
	sched := uth.NewSched(comm, cfg.Sched, hooks{space: space})
	if cfg.Pgas.Validate {
		// Validator diagnostics name the task segment running on the
		// offending rank; the scheduler knows the thread -> rank binding.
		space.TaskOf = func(rank int) int64 {
			return sched.CurrentTID(comm.Rank(rank).Proc())
		}
	}
	// The SDC protector exists whenever defenses are configured OR a plan
	// can corrupt task results: the latter case (defenses off) still needs
	// the protector's escape accounting for the negative control.
	var protector *uth.Protector
	if cfg.SDC != nil || (inj != nil && inj.TaskArmed()) {
		var sc uth.SDCConfig
		if cfg.SDC != nil {
			sc = *cfg.SDC
		}
		if sc.Seed == 0 {
			// Decorrelate selection from the scheduler's victim streams.
			sc.Seed = cfg.Seed + 1
		}
		protector = uth.NewProtector(sched, sc)
		if cfg.SDC != nil {
			// Defenses armed: the wire side gets the end-to-end payload
			// checksum with the same replay bound as task replication.
			comm.SetSDCVerify(protector.Config().MaxReplays)
		}
	}
	return &Runtime{cfg: cfg, eng: eng, comm: comm, space: space, sched: sched,
		rec: rec, inj: inj, prot: protector}
}

// Injector returns the armed fault injector (nil unless Config.Faults).
func (rt *Runtime) Injector() *fault.Injector { return rt.inj }

// Protector returns the SDC task-replication protector (nil unless
// Config.SDC or a task-corrupting fault plan is armed).
func (rt *Runtime) Protector() *uth.Protector { return rt.prot }

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
	return rt.Profile().WriteJSON(w)
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

		// Write-back coalescing (zero unless CoalesceWriteBack is on).
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
		c["fault_budget_exhausted_ranks"] = fs.BudgetExhausted
		for i, v := range rt.comm.RetriesByRank() {
			c[fmt.Sprintf("rma_retries_rank_%02d", i)] = v
		}
	}
	// SDC: sdc_detected/sdc_recovered/sdc_escaped combine the task
	// (replication) and wire (checksum) sides; the per-rank
	// injected-vs-detected pairs feed the itytrace resilience table.
	if rt.prot != nil {
		ts, ws := rt.prot.Stats, rt.comm.SdcWire()
		c["sdc_protected_tasks"] = ts.Protected
		c["replica_tasks"] = ts.Replicas
		c["sdc_detected"] = ts.Detected + ws.Detected
		c["sdc_recovered"] = ts.Recovered + ws.Retrans
		c["sdc_escaped"] = ts.Escaped + ws.Escapes
		c["sdc_wire_flips"] = ws.Flips
		c["sdc_wire_retrans"] = ws.Retrans
		if rt.inj != nil {
			fs := rt.inj.Stats()
			c["sdc_injected_flips"] = fs.WireFlips + fs.TaskFlips
			wf, tf := rt.inj.WireFlipsByRank(), rt.inj.TaskFlipsByRank()
			det, wdet := rt.prot.DetectedByRank(), rt.comm.SdcWireDetectedByRank()
			esc, wesc := rt.prot.EscapedByRank(), rt.comm.SdcWireEscapesByRank()
			for i := range wf {
				c[fmt.Sprintf("sdc_injected_rank_%02d", i)] = wf[i] + tf[i]
				c[fmt.Sprintf("sdc_detected_rank_%02d", i)] = det[i] + wdet[i]
				c[fmt.Sprintf("sdc_escaped_rank_%02d", i)] = esc[i] + wesc[i]
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
	snap, err := json.Marshal(rt.MetricsSnapshot())
	if err != nil {
		return err
	}
	var profSnap json.RawMessage
	if rt.Profile() != nil {
		if profSnap, err = json.Marshal(rt.Profile().Snapshot()); err != nil {
			return err
		}
	}
	var valSnap json.RawMessage
	if rt.space.Validating() {
		if valSnap, err = trace.MarshalValidator(rt.space.Violations()); err != nil {
			return err
		}
	}
	return rt.Trace().WriteDump(w, trace.Meta{
		Ranks:        rt.cfg.Ranks,
		CoresPerNode: rt.cfg.CoresPerNode,
		Policy:       rt.space.Policy().String(),
		Metrics:      snap,
		Profile:      profSnap,
		Validator:    valSnap,
	})
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

// Config returns the runtime configuration after defaulting.
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

// Charge advances virtual time by d, modelling local computation.
func (c *Ctx) Charge(d sim.Time) { c.tb.Proc().Advance(d) }

// ChargeAs advances virtual time by d and attributes it to the named
// profiler category (e.g. "Serial Quicksort" in Fig. 9).
func (c *Ctx) ChargeAs(cat string, d sim.Time) {
	t0 := c.Now()
	c.tb.Proc().Advance(d)
	c.rt.rec.SpanAs(cat, c.tb.RankID(), trace.KCompute, t0, d, 0, 0)
}

// Yield lets long-running leaf code service lazy-release polls.
func (c *Ctx) Yield() { c.tb.Yield() }

// Protected executes fn — a fork-free task segment returning a 64-bit
// result — under the silent-data-corruption protocol. With neither
// defenses nor a task-corrupting plan armed it is exactly fn() (zero
// simulated-time events, digest-pinned). Otherwise a seeded fraction of
// calls (Config.SDC.Replicate) re-execute on a replica rank and compare
// a streaming digest over the segment's committed writes and result,
// re-running on mismatch and fail-stopping past MaxReplays; unreplicated
// calls under a corrupting plan may have one bit of their writes (or of
// their result, if they write nothing) flipped — a real escape.
//
// fn must be fork-free and replay-stable: re-executed from the same
// committed state it must produce the same bytes (idempotent overwrites
// and pure results qualify; read-modify-write accumulation does not).
func (c *Ctx) Protected(fn func() uint64) uint64 {
	rt := c.rt
	prot := rt.prot
	if prot == nil {
		return fn()
	}
	rank := c.tb.RankID()
	victim, selected := prot.Pick(rank)
	if !selected {
		// Unreplicated execution: an armed task-corruption stream may
		// corrupt this segment for real. The flip lands in the first view
		// the segment commits, or in the return value if it commits none.
		if rt.inj != nil {
			if sig, ok := rt.inj.CorruptTask(c.Now(), rank); ok {
				l := c.Local()
				l.SdcArmFlip(sig)
				ret := fn()
				if !l.SdcTakeFlip() {
					ret ^= 1 << (sig & 63)
				}
				prot.NoteEscape(rank)
				return ret
			}
		}
		return fn()
	}
	exec := func() (uint64, uint64) {
		l := c.Local()
		var sig uint64
		corrupted := false
		if rt.inj != nil {
			sig, corrupted = rt.inj.CorruptTask(c.Now(), rank)
		}
		l.SdcArmDigest()
		ret := fn()
		dig := (l.SdcTakeDigest() ^ ret) * 0x100000001b3
		if corrupted {
			// Deferred flip: under replication a corrupted execution folds
			// its flip into the digest instead of touching memory, so the
			// mismatch is guaranteed even for segments that read their own
			// output back (e.g. re-sorting an in-place-sorted leaf could
			// otherwise reproduce a survivable flip bit-for-bit), and the
			// accepted clean pair leaves memory exactly right.
			dig ^= sig
		}
		return ret, dig
	}
	return prot.Replicate(c.tb, victim, exec)
}

// Checkout claims [addr, addr+size) in the given mode, returning a view.
func (c *Ctx) Checkout(addr pgas.Addr, size uint64, mode pgas.Mode) ([]byte, error) {
	return c.Local().Checkout(addr, size, mode)
}

// MustCheckout is Checkout that panics on error, for workloads whose
// accesses are statically known to fit the cache.
func (c *Ctx) MustCheckout(addr pgas.Addr, size uint64, mode pgas.Mode) []byte {
	v, err := c.Local().Checkout(addr, size, mode)
	if err != nil {
		panic(fmt.Sprintf("core: checkout(%#x,%d,%v): %v", addr, size, mode, err))
	}
	return v
}

// Checkin completes the matching Checkout.
func (c *Ctx) Checkin(addr pgas.Addr, size uint64, mode pgas.Mode) {
	if err := c.Local().Checkin(addr, size, mode); err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
}

// AllocLocal allocates from the executing rank's noncollective heap.
func (c *Ctx) AllocLocal(size uint64) pgas.Addr { return c.Local().AllocLocal(size) }

// FreeLocal frees a noncollective allocation.
func (c *Ctx) FreeLocal(addr pgas.Addr, size uint64) {
	if err := c.Local().FreeLocal(addr, size); err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
}

// Thread is a forked child handle.
type Thread = uth.Thread

// Fork spawns fn as a child thread, running it immediately (child-first)
// and exposing this thread's continuation to thieves. Any checkouts must be
// checked in before calling Fork (threads can migrate here).
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

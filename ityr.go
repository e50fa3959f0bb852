// Package ityr is a Go implementation of Itoyori (Shiina & Taura, SC '23):
// a global-view fork-join task-parallel runtime over a software-cached
// partitioned global address space, running on a deterministic simulated
// cluster.
//
// Programs look like shared-memory nested fork-join code: tasks are forked
// and joined freely, the runtime load-balances them across ranks with
// child-first work stealing, and global memory is accessed through
// checkout/checkin pairs that the runtime caches and keeps coherent
// (sequential consistency for data-race-free programs, synchronized at
// fork-join points).
//
// A minimal program:
//
//	cfg := ityr.Config{Ranks: 16, CoresPerNode: 4}
//	elapsed, err := ityr.LaunchRoot(cfg, func(c *ityr.Ctx) {
//		a := ityr.AllocArray[int32](c, 1<<20, ityr.BlockCyclicDist)
//		c.ParallelFor(0, a.Len, 8192, func(c *ityr.Ctx, lo, hi int64) {
//			v := ityr.Checkout(c, a.Slice(lo, hi), ityr.Write)
//			for i := range v {
//				v[i] = int32(lo) + int32(i)
//			}
//			ityr.Checkin(c, a.Slice(lo, hi), ityr.Write)
//		})
//	})
//
// See DESIGN.md for how the simulated substrate maps onto the paper's
// MPI-3 RMA + RDMA environment.
package ityr

import (
	"fmt"

	"ityr/internal/core"
	"ityr/internal/netmodel"
	"ityr/internal/pgas"
	"ityr/internal/rma"
	"ityr/internal/sim"
	"ityr/internal/uth"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// Config assembles the simulated machine and runtime parameters.
	Config = core.Config
	// Runtime is one simulated Itoyori instance.
	Runtime = core.Runtime
	// SPMD is a rank's handle in the SPMD region.
	SPMD = core.SPMD
	// Win is a one-sided memory window for the SPMD region (Runtime.NewWin).
	Win = core.Win
	// Ctx is a thread's handle in the fork-join region.
	Ctx = core.Ctx
	// Thread is a forked child handle.
	Thread = core.Thread
	// Addr is a unified global virtual address.
	Addr = pgas.Addr
	// Mode is a checkout access mode.
	Mode = pgas.Mode
	// Policy selects the cache policy.
	Policy = pgas.Policy
	// DistPolicy is a collective memory distribution policy.
	DistPolicy = pgas.DistPolicy
	// PgasConfig tunes the cache system.
	PgasConfig = pgas.Config
	// SchedConfig tunes the work-stealing scheduler.
	SchedConfig = uth.Config
	// SchedPolicy selects the scheduling discipline (Config.Sched.Policy).
	SchedPolicy = uth.SchedPolicy
	// SDCConfig tunes selective task replication (silent-data-corruption
	// detection); set Config.SDC to enable it.
	SDCConfig = core.SDCConfig
	// NetParams is the interconnect cost model.
	NetParams = netmodel.Params
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// CommStats counts a run's one-sided traffic (Runtime.Comm().Stats()).
	CommStats = rma.Stats
)

// Units of virtual time.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
)

// DefaultNet is the shipped interconnect model, Config.Net's default: the
// paper's two tiers, shared memory inside a node and RDMA between nodes.
func DefaultNet(coresPerNode int) NetParams {
	return netmodel.Default(coresPerNode)
}

// Access modes (§3.3 of the paper).
const (
	Read      = pgas.Read
	Write     = pgas.Write
	ReadWrite = pgas.ReadWrite
)

// Cache policies (§4.4, §6.1).
const (
	NoCache       = pgas.NoCache
	WriteThrough  = pgas.WriteThrough
	WriteBack     = pgas.WriteBack
	WriteBackLazy = pgas.WriteBackLazy
)

// Distribution policies (§4.2).
const (
	BlockDist       = pgas.BlockDist
	BlockCyclicDist = pgas.BlockCyclicDist
)

// Policies lists all cache policies in the paper's plotting order.
var Policies = pgas.Policies

// ParsePolicy maps a -policy flag spelling (nocache, wt, wb, lazy) to its
// cache policy, listing the valid set on error.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "nocache":
		return NoCache, nil
	case "wt":
		return WriteThrough, nil
	case "wb":
		return WriteBack, nil
	case "lazy":
		return WriteBackLazy, nil
	}
	return NoCache, fmt.Errorf("unknown policy %q (valid: nocache, wt, wb, lazy)", s)
}

// Scheduling policies (Config.Sched.Policy). ChildFirst is the paper's
// discipline and the default; HelpFirst and FBC are the Task Bench study's
// alternatives.
const (
	ChildFirst = uth.ChildFirst
	HelpFirst  = uth.HelpFirst
	FBC        = uth.FBC
)

// SchedPolicies lists all scheduling policies in -sched flag order.
var SchedPolicies = uth.SchedPolicies

// NewRuntime builds a runtime from cfg.
func NewRuntime(cfg Config) *Runtime { return core.NewRuntime(cfg) }

// Launch runs spmd once per rank and drives the simulation to completion —
// the equivalent of mpiexec'ing an Itoyori program.
func Launch(cfg Config, spmd func(*SPMD)) error {
	return core.NewRuntime(cfg).Run(spmd)
}

// LaunchRoot runs body as the root thread of a fork-join region spanning
// all ranks, returning the virtual time the region took on rank 0.
func LaunchRoot(cfg Config, body func(*Ctx)) (Time, error) {
	return core.NewRuntime(cfg).RunRoot(body)
}

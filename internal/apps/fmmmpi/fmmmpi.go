// Package fmmmpi models the hand-optimized MPI version of ExaFMM that the
// paper compares against in Fig. 11 and Table 2: particles are statically
// partitioned across nodes by particle count, each node evaluates its own
// targets (with dynamic intra-node scheduling, as the paper's MPI version
// uses MassiveThreads within a node), and the only inter-node load
// balancing is the static partition — so the irregular tree workload
// produces idleness that grows with the node count (Table 2).
//
// The model counts the real dual tree traversal's kernel calls on the
// host (fmm's own tally and cost table), attributing each to the node that
// owns its target, and derives the makespan from per-node busy times plus
// the particle-exchange (allgather) communication cost.
package fmmmpi

import (
	"ityr"
	"ityr/internal/apps/fmm"
)

// Result summarizes one modelled MPI execution.
type Result struct {
	// Elapsed is the modelled execution time.
	Elapsed ityr.Time
	// Busy is the per-node accumulated kernel time.
	Busy []ityr.Time
	// CommTime is the particle/LET exchange cost per step.
	CommTime ityr.Time
	// Idleness is 1 − mean(busy)/max(busy): the fraction of the total
	// compute time nodes spend waiting for the slowest node (Table 2).
	Idleness float64
}

// Run models the MPI ExaFMM on the given problem. The same octree,
// traversal and kernel costs as the task-parallel version are used
// (fmm.CountKernelsByPart); only the work placement differs (static, by
// body index).
func Run(p fmm.Params, nodes, coresPerNode int, net ityr.NetParams) Result {
	p = p.WithDefaults()
	bodies := fmm.GenBodiesDist(p.N, p.Seed, p.Dist)
	cells := fmm.BuildTree(bodies, p.NCrit)

	owner := func(ci int) int {
		return min(int(int64(cells[ci].Body)*int64(nodes)/int64(len(bodies))), nodes-1)
	}
	busy := make([]ityr.Time, nodes)
	for n, k := range fmm.CountKernelsByPart(cells, p.Theta, nodes, owner) {
		busy[n] = k.SerialTime()
	}

	// Communication: each node gathers the remote particles and cells it
	// needs (modelled as an allgather of the problem state).
	var comm ityr.Time
	if nodes > 1 {
		bytes := (len(bodies)*64 + len(cells)*208) * (nodes - 1) / nodes
		steps := 0
		for n := 1; n < nodes; n *= 2 {
			steps++
		}
		comm = ityr.Time(steps)*net.Latency + ityr.Time(float64(bytes)/net.Bandwidth)
	}

	var max, sum ityr.Time
	for _, b := range busy {
		sum += b
		if b > max {
			max = b
		}
	}
	idle := 0.0
	if max > 0 && nodes > 1 {
		idle = 1 - float64(sum)/float64(nodes)/float64(max)
	}
	return Result{
		Elapsed:  comm + max/ityr.Time(coresPerNode),
		Busy:     busy,
		CommTime: comm,
		Idleness: idle,
	}
}

// Package taskbench is a parameterized dependency-graph benchmark in the
// style of Task Bench (see PAPERS.md: the Itoyori/ItoyoriFBC/HPX/MPI
// study): a W-wide, S-step task graph whose inter-task dependencies follow
// a configurable shape, with controlled task grain (virtual compute per
// task) and communication intensity (bytes moved per dependency edge
// through the PGAS cache).
//
// On a global-view fork-join runtime, dependencies are not scheduler
// edges: each step is a ParallelFor over the W tasks, and a task
// "depends" on its predecessors by checking their output cells out of
// global memory (reads of the previous step's buffer) before writing its
// own cell into the next buffer. The fork-join barrier between steps
// plays the role of Task Bench's per-step synchronization, and the cache
// layer turns each edge into actual wire traffic exactly when the
// dependency crosses ranks — which is what makes shape × scheduler a
// meaningful matrix: the scheduler decides where tasks run, the shape
// decides which cells they touch, and the product decides how many bytes
// move.
//
// Every run is bit-deterministic: the graph derives from Params.Seed via
// splitmix64, task bodies fold dependency bytes with a commutative mixer,
// and the Result digest pins elapsed time, RMA traffic and the final
// buffer contents.
package taskbench

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"ityr"
)

// Shape selects the dependency pattern between consecutive steps.
type Shape int

const (
	// Trivial has no dependencies: W independent tasks per step
	// (embarrassingly parallel; isolates pure scheduling overhead).
	Trivial Shape = iota
	// Stencil depends on {i-1, i, i+1} clamped at the edges — the 1D
	// stencil pattern with purely local communication.
	Stencil
	// Nearest depends on the periodic window of radius cells on each side
	// of i (2·radius+1 edges per task).
	Nearest
	// Spread depends on fan cells strided W/fan apart and shifted by the
	// step index — long-range edges that defeat spatial locality.
	Spread
	// Random depends on fan cells drawn per (seed, step, task)
	// from splitmix64 — a different irregular graph every seed, the same
	// graph every run of one seed.
	Random
)

// fan is the dependency count per task for Spread and Random; radius is the
// window half-width for Nearest.
const fan, radius = 3, 2

// Shapes lists every graph shape in matrix order.
var Shapes = []Shape{Trivial, Stencil, Nearest, Spread, Random}

// String returns the shape's flag spelling.
func (s Shape) String() string {
	switch s {
	case Trivial:
		return "trivial"
	case Stencil:
		return "stencil"
	case Nearest:
		return "nearest"
	case Spread:
		return "spread"
	case Random:
		return "random"
	}
	return fmt.Sprintf("Shape(%d)", int(s))
}

// Params sizes one task-graph run.
type Params struct {
	// Shape is the dependency pattern.
	Shape Shape
	// Width is W, the tasks per step.
	Width int
	// Steps is S, the number of dependency-connected steps after the
	// initial (dependency-free) producer step.
	Steps int
	// GrainNs is the virtual compute charged per task — the task grain
	// knob (default 1µs).
	GrainNs ityr.Time
	// EdgeBytes is each task's output-cell size, and therefore the bytes
	// a dependency edge moves through the PGAS layer (default 512).
	EdgeBytes int
	// Seed determinizes the Random graph and the initial cell values.
	Seed int64
}

func (p Params) withDefaults() Params {
	if p.GrainNs == 0 {
		p.GrainNs = ityr.Microsecond
	}
	if p.EdgeBytes == 0 {
		p.EdgeBytes = 512
	}
	return p
}

// splitmix64 advances the splitmix64 PRNG state and returns the mixed
// output — the repo's standard deterministic value derivation.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Deps returns the (sorted, deduplicated) dependency cells of task i at
// step — the cells of step-1 whose outputs the task reads. It is a pure
// function of (Params, step, i): the whole graph is derivable host-side
// without running the simulator, which is what the generator determinism
// tests pin. step counts from 1 (step 0 is the dependency-free producer).
func (p Params) Deps(step, i int) []int {
	p = p.withDefaults()
	w := p.Width
	var deps []int
	switch p.Shape {
	case Trivial:
		return nil
	case Stencil:
		for _, d := range []int{i - 1, i, i + 1} {
			if d >= 0 && d < w {
				deps = append(deps, d)
			}
		}
	case Nearest:
		for o := -radius; o <= radius; o++ {
			deps = append(deps, ((i+o)%w+w)%w)
		}
	case Spread:
		for k := 0; k < fan; k++ {
			deps = append(deps, (i+step+k*w/fan)%w)
		}
	case Random:
		x := uint64(p.Seed)*0x9E3779B97F4A7C15 ^ uint64(step)<<32 ^ uint64(i)
		for k := 0; k < fan; k++ {
			x = splitmix64(x)
			deps = append(deps, int(x%uint64(w)))
		}
	}
	sort.Ints(deps)
	// Deduplicate: periodic windows wider than W and random draws can
	// repeat a cell, and a task reads each dependency once.
	out := deps[:0]
	for _, d := range deps {
		if len(out) == 0 || out[len(out)-1] != d {
			out = append(out, d)
		}
	}
	return out
}

// CountEdges returns the total dependency-edge count of the graph —
// host-side, without the simulator.
func (p Params) CountEdges() int64 {
	var edges int64
	for step := 1; step <= p.Steps; step++ {
		for i := 0; i < p.Width; i++ {
			edges += int64(len(p.Deps(step, i)))
		}
	}
	return edges
}

// Result carries one finished run's observables.
type Result struct {
	// Elapsed is the virtual time of the timed phase (all Steps rounds;
	// the dependency-free producer step is excluded).
	Elapsed ityr.Time
	// Checksum folds the final buffer's cell values; it depends only on
	// Params, never on the schedule, so it cross-checks the scheduling
	// policies against each other.
	Checksum uint64
	// Tasks and Edges count the graph actually executed.
	Tasks, Edges int64
	// Stats is the RMA traffic of the whole run.
	Stats ityr.CommStats
	// Steals and Migrations summarize the schedule that ran the graph.
	Steals, Migrations uint64
}

// Digest folds every simulated observable into one printable string; two
// runs of the same (Config, Params) must match.
func (r Result) Digest() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "checksum=%016x tasks=%d edges=%d\n", r.Checksum, r.Tasks, r.Edges)
	fmt.Fprintf(h, "rma=%+v\n", r.Stats)
	fmt.Fprintf(h, "sched=steals:%d migrations:%d\n", r.Steals, r.Migrations)
	return fmt.Sprintf("elapsed=%d checksum=%016x fnv=%016x", r.Elapsed, r.Checksum, h.Sum64())
}

// cellValue is the value task (step, i) writes into its cell: the mixed
// fold of its dependencies' values plus its own identity. Step 0 is the
// producer row seeded from Params.Seed alone.
func cellValue(seed int64, step, i int, depVals []uint64) uint64 {
	v := splitmix64(uint64(seed) ^ uint64(step)<<40 ^ uint64(i)*0x9E3779B97F4A7C15)
	for _, d := range depVals {
		v += splitmix64(d) // commutative: order of dependency reads is free
	}
	return v
}

// Run executes the task graph under rcfg and returns its observables. The
// two step buffers are block-distributed byte arrays of Width cells ×
// EdgeBytes; each task checks its dependency cells out of the previous
// step's buffer (Read), charges GrainNs of compute, and fills its own
// cell in the next buffer (Write) — so EdgeBytes genuinely controls the
// bytes an off-rank dependency moves, under whatever cache policy rcfg
// selects.
func Run(rcfg ityr.Config, p Params) (Result, error) {
	p = p.withDefaults()
	if p.Width < 1 || p.Steps < 1 {
		return Result{}, fmt.Errorf("taskbench: need Width and Steps >= 1, got %d×%d", p.Width, p.Steps)
	}
	if p.EdgeBytes < 8 {
		return Result{}, fmt.Errorf("taskbench: EdgeBytes must be >= 8, got %d", p.EdgeBytes)
	}
	rt := ityr.NewRuntime(rcfg)
	n := int64(p.Width) * int64(p.EdgeBytes)
	var elapsed ityr.Time
	var final []byte
	err := rt.Run(func(s *ityr.SPMD) {
		// Rank 0 drives the collective allocations; the other ranks only
		// need the spans through the RootExec closures below, which all
		// capture rank 0's variables.
		var src, dst ityr.GSpan[byte]
		if s.Rank() == 0 {
			src = ityr.AllocArraySPMD[byte](s, n, ityr.BlockDist)
			dst = ityr.AllocArraySPMD[byte](s, n, ityr.BlockDist)
		}
		s.Barrier()
		// Producer step: fill row 0 outside the timed phase.
		s.RootExec(func(c *ityr.Ctx) {
			c.ParallelFor(0, int64(p.Width), 1, func(c *ityr.Ctx, lo, hi int64) {
				for i := lo; i < hi; i++ {
					writeCell(c, src, p, int(i), cellValue(p.Seed, 0, int(i), nil))
				}
			})
		})
		t0 := s.Now()
		s.RootExec(func(c *ityr.Ctx) {
			for step := 1; step <= p.Steps; step++ {
				step := step
				sFrom, sTo := src, dst
				c.ParallelFor(0, int64(p.Width), 1, func(c *ityr.Ctx, lo, hi int64) {
					for i := lo; i < hi; i++ {
						task(c, sFrom, sTo, p, step, int(i))
					}
				})
				src, dst = dst, src
			}
		})
		if s.Rank() == 0 {
			elapsed = s.Now() - t0
			b, err := ityr.GetSlice(s, src)
			if err != nil {
				panic(err)
			}
			final = b
		}
		s.Barrier()
	})
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Elapsed:    elapsed,
		Tasks:      int64(p.Width) * int64(p.Steps),
		Edges:      p.CountEdges(),
		Stats:      rt.Comm().Stats(),
		Steals:     rt.Sched().Stats.Steals,
		Migrations: rt.Sched().Stats.Migrations,
	}
	for i := 0; i < p.Width; i++ {
		res.Checksum += splitmix64(loadCell(final, p, i))
	}
	return res, nil
}

// task runs one graph task: read dependency cells from the previous
// step's buffer, charge the grain, write this task's cell.
func task(c *ityr.Ctx, from, to ityr.GSpan[byte], p Params, step, i int) {
	deps := p.Deps(step, i)
	depVals := make([]uint64, len(deps))
	for k, d := range deps {
		cell := from.Slice(int64(d)*int64(p.EdgeBytes), int64(d+1)*int64(p.EdgeBytes))
		v := ityr.Checkout(c, cell, ityr.Read)
		depVals[k] = binary.LittleEndian.Uint64(v)
		ityr.Checkin(c, cell, ityr.Read)
	}
	c.Charge(p.GrainNs)
	writeCell(c, to, p, i, cellValue(p.Seed, step, i, depVals))
}

// writeCell fills task i's whole EdgeBytes-wide cell with bytes derived
// from v (the value itself in the first 8 bytes); filling the full cell
// is what makes EdgeBytes the wire-traffic knob even under write-back
// dirty-interval tracking.
func writeCell(c *ityr.Ctx, buf ityr.GSpan[byte], p Params, i int, v uint64) {
	cell := buf.Slice(int64(i)*int64(p.EdgeBytes), int64(i+1)*int64(p.EdgeBytes))
	out := ityr.Checkout(c, cell, ityr.Write)
	x := v
	for j := 0; j < len(out); j += 8 {
		for b := 0; b < 8 && j+b < len(out); b++ {
			out[j+b] = byte(x >> (8 * b))
		}
		x = splitmix64(x)
	}
	ityr.Checkin(c, cell, ityr.Write)
}

// loadCell reads cell i's value (its first 8 bytes) from a host-side copy
// of a buffer.
func loadCell(buf []byte, p Params, i int) uint64 {
	return binary.LittleEndian.Uint64(buf[i*p.EdgeBytes:])
}

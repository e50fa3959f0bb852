package fmm

import (
	"unsafe"

	"ityr"
)

// Params configures an FMM run (defaults follow §6.4 of the paper).
type Params struct {
	N      int     // number of bodies
	Theta  float64 // multipole acceptance parameter θ (0.2 in the paper)
	NCrit  int     // max bodies per leaf (32 in the paper)
	NSpawn int     // spawn parallel tasks only above this body count (1000)
	Seed   int64
	Dist   Dist // particle distribution (Cube in the paper)
	// Verify makes Run fetch the evaluated bodies once the clock has
	// stopped and compare them bit for bit with EvaluateHost's. Off, the
	// run contains no verification event.
	Verify bool
}

// WithDefaults fills zero fields with the paper's parameters.
func (p Params) WithDefaults() Params {
	if p.Theta == 0 {
		p.Theta = 0.2
	}
	if p.NCrit == 0 {
		p.NCrit = 32
	}
	if p.NSpawn == 0 {
		p.NSpawn = 1000
	}
	if p.Seed == 0 {
		p.Seed = 42
	}
	return p
}

// Kernel cost model (virtual time). The constants are calibrated to the
// paper's configuration — ExaFMM's spherical-harmonics Laplace kernels at
// expansion order P=4 on a scalar A64FX core — rather than to this
// package's (cheaper) Cartesian order-2 kernels, so that the
// compute-to-communication ratio matches the evaluated system.
const (
	costP2PPair  = 23 * ityr.Nanosecond
	costM2L      = 1100 * ityr.Nanosecond // O(P⁴) translation
	costM2M      = 400 * ityr.Nanosecond
	costL2L      = 400 * ityr.Nanosecond
	costP2MBody  = 120 * ityr.Nanosecond
	costL2PBody  = 180 * ityr.Nanosecond
	costTraverse = 14 * ityr.Nanosecond // MAC + recursion step
)

// Profiler categories.
const (
	CatP2P    = "Serial P2P"
	CatKernel = "Serial Kernels"
)

// Layout constants for partial checkouts of Cell fields.
var (
	offM    = uint64(unsafe.Offsetof(Cell{}.M))
	offL    = uint64(unsafe.Offsetof(Cell{}.L))
	expSize = uint64(unsafe.Sizeof(Expansion{}))
	hdrSize = uint64(unsafe.Offsetof(Cell{}.M)) // header = everything before M
)

// cellHdr mirrors the leading fields of Cell for header-only checkouts.
type cellHdr struct {
	CX, CY, CZ float64
	R          float64
	Child      int32
	NChild     int32
	Body       int32
	NBody      int32
}

// Problem is an FMM instance uploaded into global memory.
type Problem struct {
	Params Params
	Cells  ityr.GSpan[Cell]
	Bodies ityr.GSpan[Body]
	NCells int
}

// Setup generates bodies, builds the octree on the host, and uploads both
// into block-cyclic global arrays. Call from rank 0's SPMD context before
// the fork-join region; other ranks must reach a barrier. The host tree
// build stands in for ExaFMM's tree construction phase, whose cost is
// charged to rank 0 (N log N model).
func Setup(s *ityr.SPMD, p Params) Problem {
	p = p.WithDefaults()
	bodies := GenBodiesDist(p.N, p.Seed, p.Dist)
	cells := BuildTree(bodies, p.NCrit)

	gb := ityr.AllocArraySPMD[Body](s, int64(len(bodies)), ityr.BlockCyclicDist)
	gc := ityr.AllocArraySPMD[Cell](s, int64(len(cells)), ityr.BlockCyclicDist)
	if err := ityr.PutSlice(s, bodies, gb); err != nil {
		panic(err)
	}
	if err := ityr.PutSlice(s, cells, gc); err != nil {
		panic(err)
	}
	return Problem{Params: p, Cells: gc, Bodies: gb, NCells: len(cells)}
}

func (pr *Problem) cellAddr(i int32) ityr.Addr {
	return pr.Cells.Ptr.Add(int64(i)).Addr()
}

// readHdr loads a cell header (cached read of 48 bytes).
func (pr *Problem) readHdr(c *ityr.Ctx, i int32) cellHdr {
	addr := pr.cellAddr(i)
	v := c.MustCheckout(addr, hdrSize, ityr.Read)
	h := *(*cellHdr)(unsafe.Pointer(&v[0]))
	c.Checkin(addr, hdrSize, ityr.Read)
	return h
}

// readM loads a cell's multipole expansion.
func (pr *Problem) readM(c *ityr.Ctx, i int32) Expansion {
	addr := pr.cellAddr(i) + ityr.Addr(offM)
	v := c.MustCheckout(addr, expSize, ityr.Read)
	m := *(*Expansion)(unsafe.Pointer(&v[0]))
	c.Checkin(addr, expSize, ityr.Read)
	return m
}

// writeM stores a cell's multipole expansion (write-only).
func (pr *Problem) writeM(c *ityr.Ctx, i int32, m *Expansion) {
	addr := pr.cellAddr(i) + ityr.Addr(offM)
	v := c.MustCheckout(addr, expSize, ityr.Write)
	*(*Expansion)(unsafe.Pointer(&v[0])) = *m
	c.Checkin(addr, expSize, ityr.Write)
}

// addL accumulates into a cell's local expansion (read-modify-write).
func (pr *Problem) addL(c *ityr.Ctx, i int32, delta *Expansion) {
	addr := pr.cellAddr(i) + ityr.Addr(offL)
	v := c.MustCheckout(addr, expSize, ityr.ReadWrite)
	l := (*Expansion)(unsafe.Pointer(&v[0]))
	for k := range l {
		l[k] += delta[k]
	}
	c.Checkin(addr, expSize, ityr.ReadWrite)
}

// readL loads a cell's local expansion.
func (pr *Problem) readL(c *ityr.Ctx, i int32) Expansion {
	addr := pr.cellAddr(i) + ityr.Addr(offL)
	v := c.MustCheckout(addr, expSize, ityr.Read)
	l := *(*Expansion)(unsafe.Pointer(&v[0]))
	c.Checkin(addr, expSize, ityr.Read)
	return l
}

// Evaluate runs the FMM in the fork-join region: upward pass, dual tree
// traversal, downward pass — each a nested fork-join computation over
// global memory, parallel down to NSpawn bodies per task.
func (pr *Problem) Evaluate(c *ityr.Ctx) {
	pr.upward(c, 0)
	pr.dtt(c, 0, 0)
	pr.downward(c, 0)
}

func (pr *Problem) upward(c *ityr.Ctx, ci int32) {
	h := pr.readHdr(c, ci)
	var m Expansion
	if h.Child < 0 {
		// SDC-protected P2M leaf: reads bodies, overwrites this cell's M.
		// Replay-stable — a re-execution from the committed state recomputes
		// the same expansion from the same read-only inputs. (The downward
		// pass's accumulate tasks, addL and L2P, are += read-modify-write
		// and would NOT commit identical bytes on re-execution, so they stay
		// outside the protection domain.)
		c.Protected(func() uint64 {
			m = Expansion{} // P2M accumulates; reset for re-execution
			bspan := pr.Bodies.Slice(int64(h.Body), int64(h.Body+h.NBody))
			v := ityr.Checkout(c, bspan, ityr.Read)
			P2M(v, h.CX, h.CY, h.CZ, &m)
			c.ChargeAs(CatKernel, ityr.Time(h.NBody)*costP2MBody)
			ityr.Checkin(c, bspan, ityr.Read)
			pr.writeM(c, ci, &m)
			return 0
		})
		return
	}
	// Children first (parallel above the spawn threshold).
	pr.forChildren(c, &h, func(c *ityr.Ctx, child int32) {
		pr.upward(c, child)
	})
	// SDC-protected M2M fold: reads the children's committed expansions,
	// overwrites this cell's M — replay-stable like the P2M leaf.
	c.Protected(func() uint64 {
		m = Expansion{} // M2M accumulates; reset for re-execution
		for k := int32(0); k < h.NChild; k++ {
			child := h.Child + k
			ch := pr.readHdr(c, child)
			cm := pr.readM(c, child)
			M2M(&cm, ch.CX, ch.CY, ch.CZ, h.CX, h.CY, h.CZ, &m)
			c.ChargeAs(CatKernel, costM2M)
		}
		pr.writeM(c, ci, &m)
		return 0
	})
}

// forChildren runs fn over the children of h, in parallel when the cell is
// big enough (NSpawn, as in the task-parallel ExaFMM).
func (pr *Problem) forChildren(c *ityr.Ctx, h *cellHdr, fn func(c *ityr.Ctx, child int32)) {
	if int(h.NBody) > pr.Params.NSpawn && h.NChild > 1 {
		fns := make([]func(*ityr.Ctx), h.NChild)
		for k := int32(0); k < h.NChild; k++ {
			child := h.Child + k
			fns[k] = func(c *ityr.Ctx) { fn(c, child) }
		}
		c.ParallelInvoke(fns...)
		return
	}
	for k := int32(0); k < h.NChild; k++ {
		fn(c, h.Child+k)
	}
}

// dtt is the dual tree traversal: a is the target cell (this task owns its
// local expansion and bodies), b the source cell. Target-side splits may
// spawn tasks; source-side splits stay serial, so every cell's L and every
// leaf's bodies have a single writer between joins (data-race-freedom).
func (pr *Problem) dtt(c *ityr.Ctx, a, b int32) {
	ha := pr.readHdr(c, a)
	pr.dttH(c, a, &ha, b)
}

func (pr *Problem) dttH(c *ityr.Ctx, a int32, ha *cellHdr, b int32) {
	hb := pr.readHdr(c, b)
	c.Charge(costTraverse)
	ca := Cell{CX: ha.CX, CY: ha.CY, CZ: ha.CZ, R: ha.R}
	cb := Cell{CX: hb.CX, CY: hb.CY, CZ: hb.CZ, R: hb.R}
	if MAC(&ca, &cb, pr.Params.Theta) {
		m := pr.readM(c, b)
		var delta Expansion
		M2L(&m, hb.CX, hb.CY, hb.CZ, ha.CX, ha.CY, ha.CZ, &delta)
		c.ChargeAs(CatKernel, costM2L)
		pr.addL(c, a, &delta)
		return
	}
	if ha.Child < 0 && hb.Child < 0 {
		pr.p2pLeaves(c, ha, &hb, a == b)
		return
	}
	if hb.Child < 0 || (ha.Child >= 0 && ha.R >= hb.R) {
		// Split the target: each child task owns its own subtree.
		pr.forChildren(c, ha, func(c *ityr.Ctx, child int32) {
			pr.dtt(c, child, b)
		})
		return
	}
	// Split the source serially.
	for k := int32(0); k < hb.NChild; k++ {
		pr.dttH(c, a, ha, hb.Child+k)
	}
}

func (pr *Problem) p2pLeaves(c *ityr.Ctx, ha, hb *cellHdr, self bool) {
	tspan := pr.Bodies.Slice(int64(ha.Body), int64(ha.Body+ha.NBody))
	tv := ityr.Checkout(c, tspan, ityr.ReadWrite)
	if self {
		P2P(tv, tv, true)
	} else {
		sspan := pr.Bodies.Slice(int64(hb.Body), int64(hb.Body+hb.NBody))
		sv := ityr.Checkout(c, sspan, ityr.Read)
		P2P(tv, sv, false)
		ityr.Checkin(c, sspan, ityr.Read)
	}
	c.ChargeAs(CatP2P, ityr.Time(ha.NBody)*ityr.Time(hb.NBody)*costP2PPair)
	ityr.Checkin(c, tspan, ityr.ReadWrite)
}

func (pr *Problem) downward(c *ityr.Ctx, ci int32) {
	h := pr.readHdr(c, ci)
	if h.Child < 0 {
		l := pr.readL(c, ci)
		bspan := pr.Bodies.Slice(int64(h.Body), int64(h.Body+h.NBody))
		v := ityr.Checkout(c, bspan, ityr.ReadWrite)
		L2P(&l, h.CX, h.CY, h.CZ, v)
		c.ChargeAs(CatKernel, ityr.Time(h.NBody)*costL2PBody)
		ityr.Checkin(c, bspan, ityr.ReadWrite)
		return
	}
	// Push this cell's L down to the children, then descend in parallel.
	l := pr.readL(c, ci)
	for k := int32(0); k < h.NChild; k++ {
		child := h.Child + k
		ch := pr.readHdr(c, child)
		var delta Expansion
		L2L(&l, h.CX, h.CY, h.CZ, ch.CX, ch.CY, ch.CZ, &delta)
		c.ChargeAs(CatKernel, costL2L)
		pr.addL(c, child, &delta)
	}
	pr.forChildren(c, &h, func(c *ityr.Ctx, child int32) {
		pr.downward(c, child)
	})
}

// Counters tallies kernel invocations for cost models and baselines.
type Counters struct {
	P2PPairs int64
	M2L      int64
	M2M      int64
	L2L      int64
	P2MBody  int64
	L2PBody  int64
	Steps    int64
}

// SerialTime converts kernel counts into the modelled serial execution
// time (the elided-runtime baseline of Fig. 11's speedup lines).
func (k Counters) SerialTime() ityr.Time {
	return ityr.Time(k.P2PPairs)*costP2PPair +
		ityr.Time(k.M2L)*costM2L +
		ityr.Time(k.M2M)*costM2M +
		ityr.Time(k.L2L)*costL2L +
		ityr.Time(k.P2MBody)*costP2MBody +
		ityr.Time(k.L2PBody)*costL2PBody +
		ityr.Time(k.Steps)*costTraverse
}

// CountKernels performs the traversal on the host, tallying kernel calls.
func CountKernels(cells []Cell, theta float64) Counters {
	return CountKernelsByPart(cells, theta, 1, func(int) int { return 0 })[0]
}

// CountKernelsByPart is CountKernels with the tally split by owner: parts
// Counters, each kernel call tallied to part(ci) of the cell ci that owns
// it — the target cell of a traversal step, M2L or P2P, the parent of an
// M2M or L2L, the leaf of a P2M or L2P.
func CountKernelsByPart(cells []Cell, theta float64, parts int, part func(ci int) int) []Counters {
	k := make([]Counters, parts)
	countUp(cells, 0, k, part)
	countDTT(cells, 0, 0, theta, k, part)
	countDown(cells, 0, k, part)
	return k
}

func countUp(cells []Cell, ci int, k []Counters, part func(int) int) {
	c := &cells[ci]
	if c.Child < 0 {
		k[part(ci)].P2MBody += int64(c.NBody)
		return
	}
	for i := int32(0); i < c.NChild; i++ {
		countUp(cells, int(c.Child+i), k, part)
		k[part(ci)].M2M++
	}
}

func countDTT(cells []Cell, a, b int, theta float64, k []Counters, part func(int) int) {
	ca, cb := &cells[a], &cells[b]
	w := &k[part(a)]
	w.Steps++
	if MAC(ca, cb, theta) {
		w.M2L++
		return
	}
	if ca.Child < 0 && cb.Child < 0 {
		w.P2PPairs += int64(ca.NBody) * int64(cb.NBody)
		return
	}
	if cb.Child < 0 || (ca.Child >= 0 && ca.R >= cb.R) {
		for i := int32(0); i < ca.NChild; i++ {
			countDTT(cells, int(ca.Child+i), b, theta, k, part)
		}
	} else {
		for i := int32(0); i < cb.NChild; i++ {
			countDTT(cells, a, int(cb.Child+i), theta, k, part)
		}
	}
}

func countDown(cells []Cell, ci int, k []Counters, part func(int) int) {
	c := &cells[ci]
	if c.Child < 0 {
		k[part(ci)].L2PBody += int64(c.NBody)
		return
	}
	for i := int32(0); i < c.NChild; i++ {
		k[part(ci)].L2L++
		countDown(cells, int(c.Child+i), k, part)
	}
}

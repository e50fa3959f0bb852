// Package halo implements a 1D ring halo-exchange stencil benchmark: the
// canonical SPMD/RMA workload whose ranks interact only through one-sided
// Puts into neighbour ghost cells, fenced by barriers.
//
// Unlike the fork-join benchmarks (cilksort, fmm, uts), halo spends its
// entire life in SPMD mode, on ityr.SPMD's one-sided surface (a window,
// PutUint64, Flush, Barrier, Charge): only the event kernel, the network
// model and the one-sided layer run, which makes it the control on which a
// cache or scheduler change must show nothing.
//
// Each step, every rank applies a three-point smoothing stencil to its
// block of cells (real host floating-point work, charged to virtual time
// per cell), barriers, then writes its two boundary cells into its
// neighbours' ghost slots with one-sided Puts, flushes, and barriers
// again. The extra barrier between the compute phase and the exchange
// phase is what makes the program data-race-free: without it, a rank's
// Put into a neighbour's ghost cell lands in the same barrier epoch as
// the neighbour's stencil read of that cell, and the value observed
// depends on scheduling order. Data-race-freedom is the property the RMA
// layer's eager payload movement relies on.
package halo

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"ityr"
)

// cellCost is the virtual compute cost charged per cell per step.
const cellCost = 2 * ityr.Nanosecond

// Config sizes a halo run.
type Config struct {
	// Ranks is the number of simulated processes in the ring.
	Ranks int
	// CoresPerNode groups ranks into nodes for the network model.
	CoresPerNode int
	// CellsPerRank is each rank's block size (cells are float64s).
	CellsPerRank int
	// Steps is the number of stencil iterations.
	Steps int

	HostProcs int // ignored; kept only for the frozen benchmark module; removed by ROADMAP 7(d)

	// Profile arms the streaming profile collector (ityr.Config.Profile),
	// read through the runtime Observe is given. Digest-inert: the digest
	// is bit-identical with it on or off.
	Profile bool
	// Observe, when non-nil, is called with the built runtime before the
	// simulation starts — the hook live-telemetry callers use to watch
	// Engine().LiveTime()/LiveEvents() while the run is in flight.
	Observe func(rt *ityr.Runtime)
}

// Result carries a finished run's observables.
type Result struct {
	// Elapsed is the virtual time from the first barrier to the last.
	Elapsed ityr.Time
	// Checksum sums every rank's final cells (bit-deterministic: the
	// stencil is fixed-order float64 arithmetic).
	Checksum float64
	// Stats is the RMA traffic of the whole run.
	Stats ityr.CommStats
	// FinalState is the concatenated per-rank cell state (ghosts
	// excluded), used by the digest.
	FinalState []float64
	// Events counts simulation-kernel events popped over the run: the
	// numerator of host events/sec throughput. Host-side observability
	// only — deliberately excluded from Digest, which folds simulated
	// observables alone.
	Events uint64
}

// Digest folds every simulated observable into one printable string; two
// runs of the same Config must produce identical digests.
func (r Result) Digest() string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range r.FinalState {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	fmt.Fprintf(h, "rma=%+v\n", r.Stats)
	return fmt.Sprintf("elapsed=%d checksum=%x fnv=%016x", r.Elapsed, math.Float64bits(r.Checksum), h.Sum64())
}

// Run executes the benchmark.
func Run(cfg Config) (Result, error) {
	if cfg.Ranks < 2 {
		return Result{}, fmt.Errorf("halo: need at least 2 ranks, got %d", cfg.Ranks)
	}
	if cfg.CellsPerRank < 2 {
		return Result{}, fmt.Errorf("halo: need at least 2 cells per rank, got %d", cfg.CellsPerRank)
	}
	rt := ityr.NewRuntime(ityr.Config{
		Ranks:        cfg.Ranks,
		CoresPerNode: cfg.CoresPerNode,
		Profile:      cfg.Profile,
	})
	if cfg.Observe != nil {
		cfg.Observe(rt)
	}
	n := cfg.Ranks
	cells := cfg.CellsPerRank
	// Segment layout per rank, in float64 slots: [ghostL | cells... | ghostR].
	win := rt.NewWin((cells + 2) * 8)
	final := make([]float64, n*cells)

	var elapsed ityr.Time
	err := rt.Run(func(s *ityr.SPMD) {
		me := s.Rank()
		left := (me + n - 1) % n
		right := (me + 1) % n
		seg := win.Seg(s)
		// Deterministic initial condition. Neighbours' Puts touch only the
		// ghost slots, so no rank needs to wait for another's.
		x := uint64(me)*0x9E3779B97F4A7C15 + 1
		for i := 0; i < cells; i++ {
			x += 0x9E3779B97F4A7C15
			z := (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
			z = (z ^ (z >> 27)) * 0x94D049BB133111EB
			storeF64(seg, i+1, float64(z>>11)/(1<<53))
		}

		exchange := func() {
			// My first cell is my left neighbour's right ghost; my last
			// cell is my right neighbour's left ghost.
			win.PutUint64(s, loadBits(seg, 1), left, uint64Off(cells+1))
			win.PutUint64(s, loadBits(seg, cells), right, uint64Off(0))
			s.Flush()
			s.Barrier()
		}

		start := s.Now()
		exchange() // populate ghosts for the first step
		for step := 0; step < cfg.Steps; step++ {
			smooth(seg, cells)
			s.Charge(ityr.Time(cells) * cellCost)
			// Fence the compute phase off from the exchange phase: every
			// rank must be done reading its ghosts before any neighbour
			// overwrites them.
			s.Barrier()
			exchange()
		}
		if me == 0 {
			elapsed = s.Now() - start
		}
		// After the last barrier no Put is in flight: read my cells back.
		for i := range cells {
			final[me*cells+i] = loadF64(seg, i+1)
		}
	})
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Elapsed:    elapsed,
		Stats:      rt.Comm().Stats(),
		Events:     rt.Engine().Stats().Events,
		FinalState: final,
	}
	for _, v := range final {
		res.Checksum += v
	}
	return res, nil
}

// smooth applies one step of the three-point stencil to the cells of seg, a
// rank's segment [ghostL | cells... | ghostR], in place. Each cell is loaded
// once: l, c, rr slide along the segment, so cell i is written only after
// cell i+1, the last that needs its old value, has been read. The float
// operations and their order are those of a stencil into a second buffer.
func smooth(seg []byte, cells int) {
	l, c := loadF64(seg, 0), loadF64(seg, 1)
	for i := 1; i <= cells; i++ {
		rr := loadF64(seg, i+1)
		storeF64(seg, i, 0.25*l+0.5*c+0.25*rr)
		l, c = c, rr
	}
}

// uint64Off converts a float64 slot index to a byte offset.
func uint64Off(slot int) int { return slot * 8 }

// loadBits, loadF64 and storeF64 access a rank's own window memory a word
// at a time in the little-endian byte order of PutUint64's wire format,
// whatever the host's.
func loadBits(seg []byte, slot int) uint64 { return binary.LittleEndian.Uint64(seg[uint64Off(slot):]) }

func loadF64(seg []byte, slot int) float64 { return math.Float64frombits(loadBits(seg, slot)) }

func storeF64(seg []byte, slot int, v float64) {
	binary.LittleEndian.PutUint64(seg[uint64Off(slot):], math.Float64bits(v))
}

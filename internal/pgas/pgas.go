// Package pgas implements Itoyori's cached partitioned global address
// space: a global heap with block / block-cyclic / noncollective memory
// distribution (§4.2), the checkout/checkin software cache (§3, §4.3), the
// SC-for-DRF coherence protocol with write-through, write-back and lazy
// write-back policies (§4.4), and the epoch-based lazy release protocol
// (§5.2, Fig. 6).
//
// A Space is the cluster-wide address space; each rank drives it through
// its Local handle. All methods must be called from simulation context.
package pgas

import (
	"errors"
	"fmt"

	"ityr/internal/sim"
)

// Addr is a global virtual address. Global addresses are unified: the same
// value refers to the same global byte on every rank (§3.2).
type Addr = uint64

// Address-space layout. These are virtual positions only; host memory is
// allocated lazily per rank segment.
const (
	collBase Addr = 1 << 32 // collective heap
	ncBase   Addr = 1 << 44 // noncollective heap
	ncSpan   Addr = 1 << 36 // virtual span per rank in the noncollective heap
)

// Mode is a checkout access mode (§3.3).
type Mode int

const (
	// Read grants read-only access; concurrent Read checkouts of the same
	// region by multiple processes are allowed.
	Read Mode = iota
	// Write grants write-only access; the checked-out region may be
	// uninitialized and every byte is considered written at checkin.
	Write
	// ReadWrite grants read-write access; every byte is considered both
	// read at checkout and written at checkin.
	ReadWrite
)

// String renders the mode name as it appears in diagnostics ("Read",
// "Write", "ReadWrite").
func (m Mode) String() string {
	switch m {
	case Read:
		return "Read"
	case Write:
		return "Write"
	case ReadWrite:
		return "ReadWrite"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Policy selects how global memory accesses are cached (§4.4, §6.1).
type Policy int

const (
	// NoCache bypasses the software cache entirely: checkout/checkin
	// degenerate to GET/PUT into a private user buffer (the paper's
	// baseline for the naive PGAS + fork-join integration).
	NoCache Policy = iota
	// WriteThrough caches reads but writes dirty data to its home
	// immediately on each checkin.
	WriteThrough
	// WriteBack caches reads and delays flushing dirty data until the
	// next release fence.
	WriteBack
	// WriteBackLazy additionally delays the release fence before a fork
	// until the continuation is actually stolen (Fig. 6).
	WriteBackLazy
)

// String renders the policy name as the paper's figures label it (e.g.
// "Write-Back (Lazy)").
func (p Policy) String() string {
	switch p {
	case NoCache:
		return "No Cache"
	case WriteThrough:
		return "Write-Through"
	case WriteBack:
		return "Write-Back"
	case WriteBackLazy:
		return "Write-Back (Lazy)"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Policies lists all cache policies in the order the paper plots them.
var Policies = []Policy{NoCache, WriteThrough, WriteBack, WriteBackLazy}

// DistPolicy is a memory distribution policy for collective allocation.
type DistPolicy int

const (
	// BlockDist distributes memory evenly so each rank's share is one
	// contiguous chunk.
	BlockDist DistPolicy = iota
	// BlockCyclicDist distributes fixed-size blocks round-robin across
	// ranks (the policy used in the paper's evaluation).
	BlockCyclicDist
)

// Config tunes the cache system. Zero fields take defaults.
type Config struct {
	// BlockSize is the memory-block granularity (64 KiB in the paper).
	BlockSize int
	// SubBlockSize is the remote-fetch granularity (4 KiB in the paper).
	SubBlockSize int
	// CacheSize is the per-process software cache capacity in bytes
	// (128 MiB in the paper; scaled down by default here).
	CacheSize int
	// Policy selects the cache policy.
	Policy Policy

	CoalesceWriteBack bool // ignored; kept only for the frozen benchmark module; removed by ROADMAP 7(d)
	PrefetchBlocks    int  // ignored; kept only for the frozen benchmark module; removed by ROADMAP 7(d)
	// Validate enables the checkout-discipline validator (see validate.go):
	// every checkout carries tracked access rights, and accesses breaking
	// the memory-model contract (write-under-read, conflicting-checkouts,
	// use-after-checkin, unreleased-write) fail fast with ErrViolation,
	// emit a KViolation trace span, and appear in the itytrace "validator"
	// report. Validation is pure host-side bookkeeping: it advances no
	// virtual time, so violation-free validated runs are bit-identical to
	// unvalidated ones. Off (false, the default) costs one nil check per
	// checkout/checkin.
	Validate bool
}

func (c Config) withDefaults() Config {
	if c.BlockSize == 0 {
		c.BlockSize = 64 << 10
	}
	if c.SubBlockSize == 0 {
		c.SubBlockSize = 4 << 10
	}
	if c.CacheSize == 0 {
		c.CacheSize = 16 << 20
	}
	if c.SubBlockSize > c.BlockSize || c.BlockSize%c.SubBlockSize != 0 {
		panic(fmt.Sprintf("pgas: sub-block size %d must divide block size %d", c.SubBlockSize, c.BlockSize))
	}
	return c
}

// maxMapEntries bounds memory-mapping entries per process
// (vm.max_map_count; 65530 in the paper's environment).
const maxMapEntries = 65530

// maxHomeBlocks bounds a process's simultaneously mapped home blocks
// (§4.3.2); the rest of its home memory is mapped on demand.
const maxHomeBlocks = 4096

// Operation cost constants (virtual time). These model the local CPU cost
// of cache bookkeeping; communication costs come from the network model.
const (
	costCheckoutBlock = 90 * sim.Nanosecond  // per-block table lookup + region check
	costCheckinBlock  = 60 * sim.Nanosecond  // per-block dirty registration
	costMmap          = 900 * sim.Nanosecond // one mmap() call (§4.3.1)
	costInvalidate    = 400 * sim.Nanosecond // acquire fence self-invalidation
	costAllocLocal    = 150 * sim.Nanosecond // noncollective allocation
	costEpoch         = 40 * sim.Nanosecond  // local epoch bookkeeping
)

// Errors.
var (
	// ErrTooMuchCheckout reports that a checkout exceeded the fixed cache
	// capacity (§3.3): the caller must split the request into chunks.
	ErrTooMuchCheckout = errors.New("pgas: too much checked-out memory for the cache size")
	// ErrBadFree reports freeing an address that is not allocated.
	ErrBadFree = errors.New("pgas: free of unallocated address")
	// ErrUnmatchedCheckin reports a checkin with no matching checkout.
	ErrUnmatchedCheckin = errors.New("pgas: checkin does not match any outstanding checkout")
	// ErrOutOfRange reports access outside any live allocation.
	ErrOutOfRange = errors.New("pgas: address range not within a live global allocation")
	// ErrViolation reports a checkout-discipline violation detected by the
	// validator (Config.Validate). The wrapped message names the broken
	// rule; the full diagnostics are in Space.Violations and, when tracing,
	// in the dump's validator section.
	ErrViolation = errors.New("pgas: checkout-discipline violation")
)

// ReleaseHandler identifies a pending lazy release (Fig. 6): the rank whose
// dirty data must reach its home, and the epoch whose completion proves it.
type ReleaseHandler struct {
	Rank   int
	Epoch  uint64
	Needed bool
}

// Unneeded is the release handler meaning "no write-back required".
var Unneeded = ReleaseHandler{}

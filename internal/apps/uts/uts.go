// Package uts implements UTS-Mem (§6.3): the unbalanced tree search
// benchmark extended to build the tree in global memory and then traverse
// it by chasing global pointers — a dynamic, irregular, fine-grained memory
// access workload.
//
// As in the original UTS, the tree shape is derived deterministically from
// SHA-1 hashes of node descriptors, with a geometric child-count
// distribution and a depth cutoff. Tree nodes are allocated from the
// noncollective global heap by whichever rank executes the construction
// task, so nearby tree nodes tend to live in nearby memory (the spatial
// locality that caching exploits in Fig. 10).
package uts

import (
	"crypto/sha1"
	"encoding/binary"
	"math"

	"ityr"
)

// Tree describes a UTS tree workload.
type Tree struct {
	// Name labels the workload (e.g. "T1L'").
	Name string
	// Seed determinizes the tree shape.
	Seed uint64
	// RootKids is the root's (fixed) branching factor, UTS's b0.
	RootKids int
	// MeanKids is the geometric mean child count of interior nodes.
	MeanKids float64
	// MaxDepth cuts the tree off (nodes at MaxDepth are leaves).
	MaxDepth int
}

// Presets scaled down from the paper's T1L (102M nodes) and T1XL (1.6G
// nodes) so they fit this simulator; the relative ×16 size gap between the
// two trees is preserved. Exact sizes are pinned by TestPresetSizes.
var (
	// T1LPrime is the smaller tree (87,716 nodes).
	T1LPrime = Tree{Name: "T1L'", Seed: 19, RootKids: 1000, MeanKids: 0.995, MaxDepth: 2000}
	// T1XLPrime is the larger tree (867,292 nodes).
	T1XLPrime = Tree{Name: "T1XL'", Seed: 19, RootKids: 10000, MeanKids: 0.99, MaxDepth: 1000}
)

// Node is a tree node in global memory. Children pointers live in a
// separate per-node array in the noncollective heap.
type Node struct {
	// Digest is the SHA-1 state determining this subtree's shape.
	Digest [20]byte
	// NChild is the number of children.
	NChild int32
	// Depth is the node's depth from the root.
	Depth int32
	// Kids points to an NChild-element array of global child pointers.
	Kids ityr.GSpan[ityr.GPtr[Node]]
}

// Compute cost model: SHA-1 evaluation and node bookkeeping.
const (
	costHashNode  = 220 * ityr.Nanosecond
	costVisitNode = 40 * ityr.Nanosecond
)

// childDigest derives child i's digest from the parent digest, as UTS
// derives child random streams.
func childDigest(parent *[20]byte, i int32) [20]byte {
	var buf [24]byte
	copy(buf[:20], parent[:])
	binary.LittleEndian.PutUint32(buf[20:], uint32(i))
	return sha1.Sum(buf[:])
}

// numChildren samples the geometric child-count distribution from a
// digest: P(m >= k) = q^k with q = mean/(1+mean), so E[m] = mean.
func (t Tree) numChildren(d *[20]byte, depth int) int32 {
	if depth >= t.MaxDepth {
		return 0
	}
	if depth == 0 {
		return int32(t.RootKids)
	}
	u := float64(binary.LittleEndian.Uint64(d[:8])>>11) / float64(1<<53)
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	q := t.MeanKids / (1 + t.MeanKids)
	m := int32(math.Log(u) / math.Log(q))
	if m < 0 {
		m = 0
	}
	return m
}

// rootDigest returns the digest of the root node.
func (t Tree) rootDigest() [20]byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], t.Seed)
	return sha1.Sum(buf[:])
}

// Build constructs the tree in global memory in parallel and returns the
// root pointer and the number of nodes created.
func Build(c *ityr.Ctx, t Tree) (ityr.GPtr[Node], int64) {
	return buildNode(c, t, t.rootDigest(), 0)
}

func buildNode(c *ityr.Ctx, t Tree, digest [20]byte, depth int) (ityr.GPtr[Node], int64) {
	c.Charge(costHashNode)
	nc := t.numChildren(&digest, depth)
	p := ityr.New[Node](c)
	var node Node
	node.Digest = digest
	node.NChild = nc
	node.Depth = int32(depth)
	total := int64(1)
	if nc > 0 {
		node.Kids = ityr.NewArrayLocal[ityr.GPtr[Node]](c, int64(nc))
		kidPtrs := make([]ityr.GPtr[Node], nc)
		counts := make([]int64, nc)
		// Fork one construction task per child, running the last inline
		// (child-first keeps most of them on this rank unless stolen).
		var rec func(c *ityr.Ctx, lo, hi int32)
		rec = func(c *ityr.Ctx, lo, hi int32) {
			if hi-lo == 1 {
				d := childDigest(&digest, lo)
				kidPtrs[lo], counts[lo] = buildNode(c, t, d, depth+1)
				return
			}
			mid := (lo + hi) / 2
			th := c.Fork(func(c *ityr.Ctx) { rec(c, lo, mid) })
			rec(c, mid, hi)
			c.Join(th)
		}
		rec(c, 0, nc)
		// Publish the children array.
		v := ityr.Checkout(c, node.Kids, ityr.Write)
		copy(v, kidPtrs)
		ityr.Checkin(c, node.Kids, ityr.Write)
		for _, k := range counts {
			total += k
		}
	}
	ityr.PutVal(c, p, node)
	return p, total
}

// Traverse counts the nodes of a tree already built in global memory by
// chasing global pointers in parallel — the measured phase of Fig. 10.
// All accesses are read-only.
func Traverse(c *ityr.Ctx, p ityr.GPtr[Node]) int64 {
	c.Charge(costVisitNode)
	n := ityr.GetVal(c, p)
	if n.NChild == 0 {
		// SDC-protected leaf: the visit commits no writes, so the
		// replication digest covers only the (pure, replay-stable) return
		// value. A bit flip in the count of any leaf shifts the tree total,
		// so every task-result corruption here is output-visible.
		return int64(c.Protected(func() uint64 { return 1 }))
	}
	kids := ityr.Checkout(c, n.Kids, ityr.Read)
	local := make([]ityr.GPtr[Node], len(kids))
	copy(local, kids)
	ityr.Checkin(c, n.Kids, ityr.Read)
	counts := make([]int64, len(local))
	var rec func(c *ityr.Ctx, lo, hi int)
	rec = func(c *ityr.Ctx, lo, hi int) {
		if hi-lo == 1 {
			counts[lo] = Traverse(c, local[lo])
			return
		}
		mid := (lo + hi) / 2
		th := c.Fork(func(c *ityr.Ctx) { rec(c, lo, mid) })
		rec(c, mid, hi)
		c.Join(th)
	}
	rec(c, 0, len(local))
	total := int64(1)
	for _, k := range counts {
		total += k
	}
	return total
}

// CountParallel is the original UTS benchmark (§6.3): count the tree's
// nodes without materializing it — each node's children are derived on the
// fly from SHA-1 hashes, so the workload has dynamic, irregular
// parallelism but no global memory access at all ("the tree is not in
// memory but is dynamically generated from the root in a deterministic
// way"). It serves as the communication-free contrast to UTS-Mem.
func CountParallel(c *ityr.Ctx, t Tree) int64 {
	return countNode(c, t, t.rootDigest(), 0)
}

func countNode(c *ityr.Ctx, t Tree, digest [20]byte, depth int) int64 {
	c.Charge(costHashNode)
	nc := t.numChildren(&digest, depth)
	total := int64(1)
	if nc == 0 {
		return total
	}
	counts := make([]int64, nc)
	var rec func(c *ityr.Ctx, lo, hi int32)
	rec = func(c *ityr.Ctx, lo, hi int32) {
		if hi-lo == 1 {
			counts[lo] = countNode(c, t, childDigest(&digest, lo), depth+1)
			return
		}
		mid := (lo + hi) / 2
		th := c.Fork(func(c *ityr.Ctx) { rec(c, lo, mid) })
		rec(c, mid, hi)
		c.Join(th)
	}
	rec(c, 0, nc)
	for _, k := range counts {
		total += k
	}
	return total
}

// CountHost computes the tree size on the host without the simulator, for
// cross-checking workload generation.
func CountHost(t Tree) int64 {
	var rec func(d [20]byte, depth int) int64
	rec = func(d [20]byte, depth int) int64 {
		nc := t.numChildren(&d, depth)
		total := int64(1)
		for i := int32(0); i < nc; i++ {
			total += rec(childDigest(&d, i), depth+1)
		}
		return total
	}
	return rec(t.rootDigest(), 0)
}

package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ityr/internal/pgas"
	"ityr/internal/sim"
)

// TestRandomDAGPrograms generates random data-race-free fork-join programs
// and checks every read against a host-side reference executed with the
// same DAG semantics. Programs are random trees in which every task owns a
// disjoint set of cells it may write, reads its children's cells after
// joining them, and occasionally re-reads cells written by completed
// subtasks — stressing fences, caching, eviction and stealing under many
// schedules and configurations.
func TestRandomDAGPrograms(t *testing.T) {
	f := func(seed int64) bool {
		for ci := range dagConfigs {
			if !runRandomDAG(t, seed, ci) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// dagSpec is a random task-tree specification, generated once per seed and
// interpreted both by the simulated runtime and by a host reference.
type dagSpec struct {
	nCells   int64
	children [][]int   // task -> child task ids
	cells    [][]int64 // task -> owned cell ids (disjoint across tasks)
	work     []sim.Time
}

func genDAG(rng *rand.Rand) *dagSpec {
	d := &dagSpec{}
	nTasks := 20 + rng.Intn(40)
	d.children = make([][]int, nTasks)
	d.cells = make([][]int64, nTasks)
	d.work = make([]sim.Time, nTasks)
	// Random tree over task ids 0..nTasks-1 (parent < child).
	for i := 1; i < nTasks; i++ {
		p := rng.Intn(i)
		d.children[p] = append(d.children[p], i)
	}
	// Disjoint cell ownership: a few cells per task.
	next := int64(0)
	for i := 0; i < nTasks; i++ {
		n := 1 + rng.Intn(3)
		for k := 0; k < n; k++ {
			d.cells[i] = append(d.cells[i], next)
			next++
		}
		d.work[i] = sim.Time(rng.Intn(20)) * sim.Microsecond
	}
	d.nCells = next
	return d
}

// hostRun computes the expected final cell values: each task writes
// f(task, sum of its children's first cells) into its own cells.
func (d *dagSpec) hostRun() []uint64 {
	vals := make([]uint64, d.nCells)
	var rec func(task int) uint64
	rec = func(task int) uint64 {
		var childSum uint64
		for _, ch := range d.children[task] {
			childSum += rec(ch)
		}
		v := uint64(task)*2654435761 + childSum + 1
		for _, cell := range d.cells[task] {
			vals[cell] = v
		}
		return v
	}
	rec(0)
	return vals
}

// dagConfigs are the machines and cache policies every random-DAG test
// runs a program under, one subtest name each.
var dagConfigs = []struct {
	name       string
	ranks, cpn int
	pol        pgas.Policy
}{
	{"WriteBackLazy", 4, 2, pgas.WriteBackLazy},
	{"WriteBack", 8, 4, pgas.WriteBack},
	{"WriteThrough", 8, 4, pgas.WriteThrough},
	{"NoCache", 8, 4, pgas.NoCache},
}

// runRandomDAG runs seed's random program under dagConfigs[ci], after the
// edits in mut, and reports whether every cell holds the host reference's
// value. ci also perturbs the runtime seed.
func runRandomDAG(t *testing.T, seed int64, ci int, mut ...func(*Config)) bool {
	rng := rand.New(rand.NewSource(seed))
	d := genDAG(rng)
	want := d.hostRun()

	dc := dagConfigs[ci]
	cfg := Config{
		Ranks:        dc.ranks,
		CoresPerNode: dc.cpn,
		Pgas: pgas.Config{
			BlockSize: 512, SubBlockSize: 64, CacheSize: 8192,
			Policy: dc.pol,
		},
		Seed: seed ^ int64(ci)<<8,
	}
	for _, m := range mut {
		m(&cfg)
	}
	rt := NewRuntime(cfg)
	got := make([]uint64, d.nCells)
	readCell := func(c *Ctx, base pgas.Addr, cell int64) uint64 {
		v := c.MustCheckout(base+pgas.Addr(cell*8), 8, pgas.Read)
		x := binary.LittleEndian.Uint64(v)
		c.Checkin(base+pgas.Addr(cell*8), 8, pgas.Read)
		return x
	}
	writeCell := func(c *Ctx, base pgas.Addr, cell int64, v uint64) {
		w := c.MustCheckout(base+pgas.Addr(cell*8), 8, pgas.Write)
		binary.LittleEndian.PutUint64(w, v)
		c.Checkin(base+pgas.Addr(cell*8), 8, pgas.Write)
	}
	err := rt.Run(func(s *SPMD) {
		var base pgas.Addr
		if s.Rank() == 0 {
			base = s.AllocCollective(uint64(d.nCells*8), pgas.BlockCyclicDist)
		}
		s.Barrier()
		s.RootExec(func(c *Ctx) {
			var run func(c *Ctx, task int) uint64
			run = func(c *Ctx, task int) uint64 {
				c.Charge(d.work[task])
				kids := d.children[task]
				sums := make([]uint64, len(kids))
				if len(kids) > 0 {
					fns := make([]func(*Ctx), len(kids))
					for i, ch := range kids {
						i, ch := i, ch
						fns[i] = func(c *Ctx) { sums[i] = run(c, ch) }
					}
					c.ParallelInvoke(fns...)
				}
				var childSum uint64
				for i, ch := range kids {
					// Cross-check via global memory: the child's first
					// cell must hold what the child returned.
					if g := readCell(c, base, d.cells[ch][0]); g != sums[i] {
						panic(fmt.Sprintf("task %d read child %d cell as %d, want %d", task, ch, g, sums[i]))
					}
					childSum += sums[i]
				}
				v := uint64(task)*2654435761 + childSum + 1
				for _, cell := range d.cells[task] {
					writeCell(c, base, cell, v)
				}
				return v
			}
			run(c, 0)
			// Final sweep: read everything back inside the region.
			for cell := int64(0); cell < d.nCells; cell++ {
				got[cell] = readCell(c, base, cell)
			}
		})
	})
	if err != nil {
		t.Logf("seed %d config %d: %v", seed, ci, err)
		return false
	}
	for cell := range want {
		if got[cell] != want[cell] {
			t.Logf("seed %d config %s: cell %d = %d, want %d",
				seed, dc.name, cell, got[cell], want[cell])
			return false
		}
	}
	return true
}

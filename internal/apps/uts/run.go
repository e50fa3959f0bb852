package uts

import "ityr"

// Params selects one UTS-Mem run. Verification costs no simulated event
// (it compares two counts the run produces anyway), so it has no switch.
type Params struct {
	Tree Tree
}

// Result is a finished run.
type Result struct {
	BuildTime    ityr.Time // virtual time of the parallel build (set-up)
	TraverseTime ityr.Time // virtual time of the traversal — Fig. 10's measured phase
	Built        int64     // nodes Build created
	Counted      int64     // nodes Traverse visited
	// Verified says the traversal visited exactly the nodes that were built.
	Verified bool
}

// Run is the benchmark end to end on rt, which the caller builds (so it
// owns the config) and may read afterwards: build the tree in global
// memory, then time the pointer-chasing traversal.
func Run(rt *ityr.Runtime, p Params) (Result, error) {
	var res Result
	err := rt.Run(func(s *ityr.SPMD) {
		var root ityr.GPtr[Node]
		t0 := s.Now()
		s.RootExec(func(c *ityr.Ctx) { root, res.Built = Build(c, p.Tree) })
		t1 := s.Now()
		s.RootExec(func(c *ityr.Ctx) { res.Counted = Traverse(c, root) })
		if s.Rank() == 0 {
			res.BuildTime, res.TraverseTime = t1-t0, s.Now()-t1
		}
	})
	res.Verified = res.Counted == res.Built && res.Counted > 0
	return res, err
}

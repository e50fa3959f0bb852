package cilksort

import "ityr"

// Params sizes one Cilksort run.
type Params struct {
	N      int64           // elements
	Cutoff int64           // serial cutoff (Fig. 7's x axis)
	Seed   uint64          // generator seed
	Dist   ityr.DistPolicy // distribution of both arrays (the paper: block-cyclic)
	// Verify checks the output: the input's checksum is taken inside the
	// generate region, sortedness and the output's checksum in one region
	// after the clock stops. Off, the run contains no verification event.
	Verify bool
}

// Result is a finished run.
type Result struct {
	// SortTime is the virtual time of the sort alone (generation excluded,
	// as in the paper).
	SortTime ityr.Time
	// Checksum is the sorted array's element sum and Verified says it is
	// sorted and sums to what was generated; both only under Params.Verify.
	Checksum int64
	Verified bool
}

// Run is the benchmark end to end on rt, which the caller builds (so it
// owns the config) and may read afterwards (stats, trace, metrics):
// allocate, generate, sort — the timed phase, with the Fig. 9 categories
// reset at its start — and, under p.Verify, check.
func Run(rt *ityr.Runtime, p Params) (Result, error) {
	var res Result
	var before int64
	var sorted bool
	err := rt.Run(func(s *ityr.SPMD) {
		var a, b ityr.GSpan[Elem]
		if s.Rank() == 0 {
			a = ityr.AllocArraySPMD[Elem](s, p.N, p.Dist)
			b = ityr.AllocArraySPMD[Elem](s, p.N, p.Dist)
		}
		s.Barrier()
		s.RootExec(func(c *ityr.Ctx) {
			Generate(c, a, p.Seed)
			if p.Verify {
				before = Checksum(c, a)
			}
		})
		rt.Profiler().ResetRank(s.Rank())
		t0 := s.Now()
		s.RootExec(func(c *ityr.Ctx) { Sort(c, a, b, p.Cutoff) })
		if s.Rank() == 0 {
			res.SortTime = s.Now() - t0
		}
		if p.Verify {
			s.RootExec(func(c *ityr.Ctx) {
				sorted = IsSorted(c, a)
				res.Checksum = Checksum(c, a)
			})
		}
	})
	res.Verified = p.Verify && sorted && before == res.Checksum
	return res, err
}

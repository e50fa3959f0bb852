package fmm

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"ityr"
)

// Result is a finished run.
type Result struct {
	// EvalTime is the virtual time of Evaluate alone (set-up excluded).
	EvalTime ityr.Time
	// Bodies are the evaluated bodies in tree order and Checksum folds their
	// potentials and accelerations; Verified says every one of those equals,
	// bit for bit, what EvaluateHost computes on the same tree — scheduling,
	// caching and injected faults move timing, never arithmetic. All three
	// only under Params.Verify.
	Bodies   []Body
	Checksum uint64
	Verified bool
}

// Run is the benchmark end to end on rt, which the caller builds (so it
// owns the config) and may read afterwards: rank 0 uploads the problem,
// Evaluate is the timed phase and, under p.Verify, rank 0 fetches the
// bodies back once the clock has stopped.
func Run(rt *ityr.Runtime, p Params) (Result, error) {
	var res Result
	err := rt.Run(func(s *ityr.SPMD) {
		var pr Problem
		if s.Rank() == 0 {
			pr = Setup(s, p)
		}
		s.Barrier()
		t0 := s.Now()
		s.RootExec(func(c *ityr.Ctx) { pr.Evaluate(c) })
		if s.Rank() == 0 {
			res.EvalTime = s.Now() - t0
			if p.Verify {
				b, gerr := ityr.GetSlice(s, pr.Bodies)
				if gerr != nil {
					panic(gerr)
				}
				res.Bodies = b
			}
		}
	})
	if err != nil || !p.Verify {
		return res, err
	}
	p = p.WithDefaults()
	ref := GenBodiesDist(p.N, p.Seed, p.Dist)
	EvaluateHost(BuildTree(ref, p.NCrit), ref, p.Theta)
	res.Verified = len(res.Bodies) == len(ref)
	h := fnv.New64a()
	var w [8]byte
	for i, b := range res.Bodies {
		out := [...]float64{b.P, b.AX, b.AY, b.AZ}
		for _, v := range out {
			binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
			h.Write(w[:])
		}
		if res.Verified { // so far: lengths agree, ref[i] exists
			r := ref[i]
			res.Verified = out == [...]float64{r.P, r.AX, r.AY, r.AZ}
		}
	}
	res.Checksum = h.Sum64()
	return res, nil
}

// Streaming-profile report sections for cmd/itytrace: offline renderers
// for the "itoyori-profile/v1" snapshot a dump may embed (Meta.Profile)
// and for the ring-truncation warning every report must lead with.

package trace

import (
	"fmt"
	"io"
	"sort"

	"ityr/internal/profile"
)

// DropWarning writes the one-line ring-truncation warning when the dump
// lost events, listing the heaviest per-rank drop totals, and reports
// whether it warned. Reports print it first: every span-derived number
// below it is a lower bound once rings truncated.
func DropWarning(w io.Writer, m Meta) bool {
	if m.Dropped == 0 {
		return false
	}
	type rankDrops struct {
		rank int
		n    uint64
	}
	var rds []rankDrops
	for r, n := range m.DroppedByRank {
		if n > 0 {
			rds = append(rds, rankDrops{rank: r, n: n})
		}
	}
	sort.Slice(rds, func(i, j int) bool {
		if rds[i].n != rds[j].n {
			return rds[i].n > rds[j].n
		}
		return rds[i].rank < rds[j].rank
	})
	detail := ""
	const show = 8
	for i, e := range rds {
		if i == show {
			detail += ", ..."
			break
		}
		if i > 0 {
			detail += ", "
		}
		detail += fmt.Sprintf("rank %d: %d", e.rank, e.n)
	}
	if detail != "" {
		detail = " (" + detail + ")"
	}
	fmt.Fprintf(w, "WARNING: span rings dropped %d events on %d rank(s)%s — span-derived numbers are lower bounds\n",
		m.Dropped, len(rds), detail)
	return true
}

// reportShades maps intensity 0..9 to a heat character.
const reportShades = " .:-=+*#%@"

func shade(v, max uint64) byte {
	if v == 0 || max == 0 {
		return reportShades[0]
	}
	idx := 1 + int(v*8/max)
	return reportShades[idx]
}

// profileReport renders a dump's streaming-profile section: the whole-run
// rollup, the communication tier split, the hottest origin→target pairs
// (with the exact matrix as a heat grid at small rank counts), and the
// per-kind occupancy timeline.
func profileReport(w io.Writer, doc *profile.Doc) {
	fmt.Fprintf(w, "\nstreaming profile (%s, %d ranks):\n", doc.Schema, doc.Ranks)
	ru := doc.Rollup
	fmt.Fprintf(w, "  time (ns)  task %d  steal %d  idle %d  stall %d  barrier %d\n",
		ru.TaskNs, ru.StealNs, ru.IdleNs, ru.StallNs, ru.BarrierNs)
	fmt.Fprintf(w, "  rma        %d gets / %d bytes   %d puts / %d bytes   %d atomics\n",
		ru.GetOps, ru.GetBytes, ru.PutOps, ru.PutBytes, ru.AtomicOps)

	var tierBytes, tierOps uint64
	for _, t := range doc.Tiers {
		tierBytes += t.Bytes
		tierOps += t.Ops
	}
	if tierOps > 0 {
		fmt.Fprintf(w, "\ncomm tier split:\n")
		var maxB uint64
		for _, t := range doc.Tiers {
			if t.Bytes > maxB {
				maxB = t.Bytes
			}
		}
		for _, t := range doc.Tiers {
			if t.Ops == 0 {
				continue
			}
			sharePct := 0.0
			if tierBytes > 0 {
				sharePct = 100 * float64(t.Bytes) / float64(tierBytes)
			}
			bar := 0
			if maxB > 0 {
				bar = int(40 * t.Bytes / maxB)
			}
			if bar == 0 && t.Bytes > 0 {
				bar = 1
			}
			fmt.Fprintf(w, "  %-7s %10d ops %14d bytes %6.1f%%  %s\n",
				t.Tier, t.Ops, t.Bytes, sharePct, bars[:bar])
		}
	}

	if len(doc.HotPairs) > 0 {
		note := ""
		if doc.HotPairsApprox {
			note = " (sketch-derived: byte totals are upper bounds)"
		}
		fmt.Fprintf(w, "\nhot pairs%s:\n", note)
		for _, p := range doc.HotPairs {
			fmt.Fprintf(w, "  %5d -> %-5d %10d ops %14d bytes\n", p.From, p.To, p.Ops, p.Bytes)
		}
	}

	if doc.Matrix != nil && doc.Ranks <= 32 {
		var maxCell uint64
		for _, row := range doc.Matrix {
			for _, b := range row {
				if b > maxCell {
					maxCell = b
				}
			}
		}
		if maxCell > 0 {
			fmt.Fprintf(w, "\ncomm matrix heat (rows = origin, cols = target, bytes):\n")
			for i, row := range doc.Matrix {
				cells := make([]byte, len(row))
				for j, b := range row {
					cells[j] = shade(b, maxCell)
				}
				fmt.Fprintf(w, "  %4d |%s|\n", i, cells)
			}
		}
	}

	tl := doc.Timeline
	if len(tl.Occupancy) > 0 && len(tl.Kinds) > 0 {
		var maxCell uint64
		totals := make([]uint64, len(tl.Kinds))
		for _, bucket := range tl.Occupancy {
			for k, v := range bucket {
				totals[k] += v
				if v > maxCell {
					maxCell = v
				}
			}
		}
		if maxCell > 0 {
			fmt.Fprintf(w, "\ntimeline (%d buckets × %d ns, occupancy heat per kind):\n",
				len(tl.Occupancy), tl.BucketNs)
			for k, name := range tl.Kinds {
				if totals[k] == 0 {
					continue
				}
				cells := make([]byte, len(tl.Occupancy))
				for b := range tl.Occupancy {
					cells[b] = shade(tl.Occupancy[b][k], maxCell)
				}
				fmt.Fprintf(w, "  %-8s |%s| %d ns\n", name, cells, totals[k])
			}
		}
	}
}

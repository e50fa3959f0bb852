package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"ityr/internal/bench"
)

// compare returns one human-readable finding per gated discrepancy between
// the baseline and the current report; an empty slice means the gate
// passes. Findings are deterministic: rows and metrics are visited in
// sorted order. The drift it also returns says how many gated values moved
// at all, within the tolerance or past it.
//
// Every metric is gated except the ones the baseline lists in Host. A
// metric fails when it drifts beyond tol relatively in either direction:
// above the baseline is a regression, below it is an improvement that
// must be re-baselined so future regressions are measured from the new
// floor. Reports are only comparable like-for-like, so a different suite,
// scale or config is the one finding, and missing or extra rows and
// metrics are findings too.
func compare(base, cur *bench.Report, tol float64) ([]string, drift) {
	host := func(name string) bool { return slices.Contains(base.Host, name) }

	// Differently configured runs aren't comparable; metric deltas against
	// them would only be noise on top of the real finding.
	if d := describe(cur, host); d != describe(base, host) {
		return []string{fmt.Sprintf("not comparable: baseline is %s, current is %s", describe(base, host), d)}, drift{}
	}

	var findings []string
	var moved drift
	for _, row := range sortedKeys(base.Rows) {
		b := base.Rows[row]
		c, ok := cur.Rows[row]
		if !ok {
			findings = append(findings, fmt.Sprintf(
				"row %q in baseline but missing from current report", row))
			continue
		}
		for _, metric := range sortedKeys(b) {
			if host(metric) {
				continue
			}
			v, ok := c[metric]
			if !ok {
				findings = append(findings, fmt.Sprintf(
					"%s %s in baseline but missing from current report", row, metric))
				continue
			}
			findings = append(findings, compareMetric(row, metric, b[metric], v, tol)...)
			moved.add(row, metric, b[metric], v)
		}
		for _, metric := range sortedKeys(c) {
			if _, ok := b[metric]; !ok && !host(metric) {
				findings = append(findings, fmt.Sprintf(
					"%s %s not in baseline: re-baseline to start gating it", row, metric))
			}
		}
	}
	for _, row := range sortedKeys(cur.Rows) {
		if _, ok := base.Rows[row]; !ok {
			findings = append(findings, fmt.Sprintf(
				"row %q not in baseline: re-baseline to start gating it", row))
		}
	}
	return findings, moved
}

// drift says whether anything moved: of the gated values in both reports,
// how many differ from the baseline, and which moved most.
type drift struct {
	values, differ int
	largest        string  // row and metric of the largest relative move
	rel            float64 // its (current-baseline)/|baseline|; ±Inf from a zero baseline
}

func (d *drift) add(row, metric string, base, cur float64) {
	d.values++
	if cur == base {
		return
	}
	d.differ++
	if rel := (cur - base) / math.Abs(base); math.Abs(rel) > math.Abs(d.rel) {
		d.largest, d.rel = row+" "+metric, rel
	}
}

func (d drift) String() string {
	s := fmt.Sprintf("%d of %d gated values differ", d.differ, d.values)
	if d.differ > 0 {
		s += fmt.Sprintf(", the largest %s by %+.3g%%", d.largest, 100*d.rel)
	}
	return s
}

// describe renders what must match before two reports' rows mean the same
// thing: suite, scale and every config entry that is not host-dependent.
func describe(rep *bench.Report, host func(string) bool) string {
	s := fmt.Sprintf("%s at %s scale", rep.Suite, rep.Scale)
	for _, k := range sortedKeys(rep.Config) {
		if !host(k) {
			s += fmt.Sprintf(" %s=%v", k, rep.Config[k])
		}
	}
	return s
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// compareMetric gates one number. The tolerance band is relative to the
// baseline; a zero baseline only accepts an exact zero (relative drift
// from zero is undefined, and the deterministic simulator reproduces true
// zeros exactly) — which also makes 0/1 verdicts such as ok and digest_ok
// exact. A claim/<figure> row holds nothing but verdicts on the paper's
// claims, where 1 → 0 is no improvement: either direction is a flip.
func compareMetric(row, metric string, base, cur, tol float64) []string {
	if strings.HasPrefix(row, "claim/") {
		if cur != base {
			return []string{fmt.Sprintf(
				"%s %s flipped: baseline %s, current %s — the change moves a verdict on one of the paper's claims; if that is intended, re-baseline and say why in EXPERIMENTS.md",
				row, metric, num(base), num(cur))}
		}
		return nil
	}
	if base == 0 {
		if cur != 0 {
			return []string{fmt.Sprintf(
				"%s %s regressed: baseline 0, current %s", row, metric, num(cur))}
		}
		return nil
	}
	switch {
	case cur > base*(1+tol):
		return []string{fmt.Sprintf(
			"%s %s regressed: baseline %s, current %s (+%.1f%%, tolerance ±%.1f%%)",
			row, metric, num(base), num(cur), 100*(cur-base)/base, 100*tol)}
	case cur < base*(1-tol):
		return []string{fmt.Sprintf(
			"%s %s improved past tolerance: baseline %s, current %s (%.1f%%, tolerance ±%.1f%%) — re-baseline to lock in the win",
			row, metric, num(base), num(cur), 100*(cur-base)/base, 100*tol)}
	}
	return nil
}

// num prints a metric the way the report files spell it: counts without an
// exponent, ratios in full.
func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

package trace

// Checkout-discipline validator interchange: internal/pgas detects the
// violations and builds ViolationRecord values; this file owns the shared
// schema so the records can travel inside an itytrace/v1 dump
// (Meta.Validator) and be rendered identically by cmd/itytrace's
// "validator" report section and by app binaries failing fast. The record
// type lives here rather than in pgas because pgas already imports trace;
// the reverse import would cycle.

import (
	"fmt"
	"io"
)

// ValidatorSchema identifies the embedded validator snapshot document.
const ValidatorSchema = "ityr-validator/v1"

// ViolationRecord is one checkout-discipline violation: which rule an
// access broke, where (global offset range plus the rma window and
// segment-offset range it resolves to), by whom (rank and task segment),
// and against whom. Time/Dur mirror the KViolation span: the span starts
// at the conflicting earlier event and ends at the access that tripped
// the rule.
type ViolationRecord struct {
	// Time is the virtual start of the violation span (the conflicting
	// earlier event: the overlapped checkout, the retired checkin, or the
	// unreleased write). Time+Dur is when the rule tripped.
	Time int64 `json:"t"`
	// Dur is the span length in virtual ns.
	Dur int64 `json:"dur"`
	// Rank is the rank whose access tripped the rule.
	Rank int `json:"rank"`
	// Task is the trace DAG thread ID of the offending task segment
	// (0 = outside the fork-join region, i.e. SPMD context).
	Task int64 `json:"task"`
	// OtherRank / OtherTask identify the conflicting party (the holder of
	// the overlapped checkout, the earlier checkin, or the unreleased
	// writer). OtherRank is -1 when there is no second party.
	OtherRank int   `json:"other_rank"`
	OtherTask int64 `json:"other_task"`
	// Rule is the broken rule's stable name (e.g. "write-under-read").
	Rule string `json:"rule"`
	// Lo/Hi is the violating overlap as a global address range [Lo, Hi).
	Lo uint64 `json:"lo"`
	Hi uint64 `json:"hi"`
	// Win is the rma window ID holding the range (-1 if unresolvable) and
	// Off is Lo's byte offset within the home's window segment, so the
	// report names window and offset range alongside global addresses.
	Win int   `json:"win"`
	Off int64 `json:"off"`
	// Detail is the full human-readable diagnostic sentence.
	Detail string `json:"detail"`
}

// ValidatorDoc is the "ityr-validator/v1" document a dump embeds
// (Meta.Validator).
type ValidatorDoc struct {
	Schema     string            `json:"schema"`
	Violations []ViolationRecord `json:"violations"`
}

// WriteViolations renders the "validator" report section: one header line
// plus, per violation, a summary line (time window, rank, task, rule,
// offsets) and the full diagnostic sentence.
func WriteViolations(w io.Writer, recs []ViolationRecord) {
	if len(recs) == 0 {
		fmt.Fprintf(w, "validator: clean (no checkout-discipline violations)\n")
		return
	}
	fmt.Fprintf(w, "validator: %d checkout-discipline violation(s)\n", len(recs))
	for _, v := range recs {
		fmt.Fprintf(w, "  [%d..%d ns] rank %d task %d  %-22s [%#x,%#x) win %d off %d..%d\n",
			v.Time, v.Time+v.Dur, v.Rank, v.Task, v.Rule, v.Lo, v.Hi,
			v.Win, v.Off, v.Off+int64(v.Hi-v.Lo))
		fmt.Fprintf(w, "      %s\n", v.Detail)
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one interval the harness spent in a call it made into the
// program (or in its own bookkeeping around such calls). Times are host
// Unix nanoseconds, so span files of successive processes share a clock.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanFile is the schema of out/trace.json.
type spanFile struct {
	Schema string `json:"schema"`
	Spans  []span `json:"spans"`
}

const spanSchema = "ityr-benchmark-spans/v1"

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing: untraced runs pass nil. The harness is single-threaded,
// so open spans form a stack.
type recorder struct {
	spans []span
	open  []int // indices into spans
}

func (r *recorder) parent() int {
	if len(r.open) == 0 {
		return 0
	}
	return r.spans[r.open[len(r.open)-1]].ID
}

// beginAt opens a span under the innermost open one.
func (r *recorder) beginAt(name, layer string, at time.Time) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: r.parent(), Name: name, Layer: layer, Start: at.UnixNano()})
	r.open = append(r.open, len(r.spans)-1)
}

// endAt closes the innermost open span.
func (r *recorder) endAt(at time.Time) {
	if r == nil {
		return
	}
	r.spans[r.open[len(r.open)-1]].End = at.UnixNano()
	r.open = r.open[:len(r.open)-1]
}

func (r *recorder) begin(name, layer string) { r.beginAt(name, layer, time.Now()) }
func (r *recorder) end()                     { r.endAt(time.Now()) }

// add records a closed span under the innermost open one. With beginAt
// and endAt it lets a pass be recorded from stamps taken earlier, so that
// nothing is recorded inside a timed phase.
func (r *recorder) add(name, layer string, from, to time.Time) {
	r.beginAt(name, layer, from)
	r.endAt(to)
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spanFile{Schema: spanSchema, Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSpans(path string) ([]span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f spanFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != spanSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, spanSchema)
	}
	return f.Spans, nil
}

// appendSpans appends more to all, shifting more's IDs past all's.
func appendSpans(all, more []span) []span {
	base := len(all)
	for _, s := range more {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		all = append(all, s)
	}
	return all
}

// printSelfTimes prints, per layer and span name, the count and the self time: a
// span's duration minus the part its children cover (children of one span
// never overlap here, so that part is their summed durations).
func printSelfTimes(w io.Writer, spans []span) {
	children := make(map[int]int64, len(spans))
	for _, s := range spans {
		children[s.Parent] += s.End - s.Start
	}
	type row struct {
		name, layer string
		n           int
		self        int64
	}
	byName := map[string]*row{}
	for _, s := range spans {
		r := byName[s.Layer+"/"+s.Name]
		if r == nil {
			r = &row{name: s.Name, layer: s.Layer}
			byName[s.Layer+"/"+s.Name] = r
		}
		r.n++
		r.self += s.End - s.Start - children[s.ID]
	}
	rows := make([]*row, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	fmt.Fprintf(w, "  %-28s %-9s %6s %12s\n", "span", "layer", "count", "self_s")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %-9s %6d %12.4f\n", r.name, r.layer, r.n, float64(r.self)/1e9)
	}
}

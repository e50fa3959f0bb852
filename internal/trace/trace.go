// Package trace records timestamped runtime events (scheduler actions,
// fences, cache misses) for debugging and performance analysis — the
// simulator's equivalent of Itoyori's execution tracer. Since PR 2 it
// records both instant events and *spans* (events with a duration), kept
// in per-rank ring buffers so long runs can bound memory to the most
// recent events per rank. Logs can be dumped as text, serialized to a
// self-describing JSON dump ("itytrace/v1") for offline analysis with
// cmd/itytrace, or exported in the Chrome tracing JSON format for visual
// timelines (spans become "X" complete events, grouped by simulated node
// via the PID field). The Recorder (recorder.go) is the one way events are
// written; the package also owns the "itoyori-metrics/v1" document
// (metrics.go).
//
// All timestamps are virtual (sim.Time); recording never advances the
// clock, so enabling tracing cannot change simulated behavior. A nil *Log
// is the ring switched off: the recorder skips it, and the off path does
// zero allocations.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"ityr/internal/profile"
	"ityr/internal/sim"
)

// Kind labels an event.
type Kind uint8

// Event kinds. KFork..KRegionExit predate span support; the kinds after
// KRegionExit were added with it (KTaskRun/KTaskEnd/KJoin carry the
// thread IDs the critical-path analysis needs).
const (
	KFork Kind = iota
	KSteal
	KFailedSteal
	KMigrate
	KRelease
	KLazyRelease
	KAcquire
	KCacheMiss
	KWriteBack
	KEviction
	KRegionEnter
	KRegionExit
	KCheckout
	KTaskRun
	KTaskEnd
	KJoin
	// KRetry and KBlacklist were added with the fault-injection subsystem
	// (PR 3); the enum stays append-only so dumped kind values keep their
	// meaning across versions.
	KRetry
	KBlacklist
	// KPrefetch was added with the sequential-access block prefetch, appended
	// per the same rule. The prefetch is gone and nothing records the kind;
	// the slot stays so later kinds keep their values.
	KPrefetch
	// KReplica and KSdcDetect were added with the silent-data-corruption
	// subsystem (task replication), appended per the same rule.
	KReplica
	KSdcDetect
	// KViolation was added with the checkout-discipline validator
	// (pgas.Config.Validate), appended per the same rule.
	KViolation
	// The kinds below were added with the Recorder, which keeps them out
	// of the span ring (lastRingKind), so dumps never carry their values.
	KCheckin          // span over one Checkin call, Arg = bytes
	KGet              // span over one uncached Local.Get, Arg = bytes
	KPut              // span over one uncached Local.Put, Arg = bytes
	KWriteBackAll     // span over a write-back pass outside a join fence
	KLazyWriteBackAll // span over a write-back pass another rank's acquire requested
	KIdle             // span over one scheduler idle backoff
	KStall            // span over one RMA flush wait
	KBarrier          // span from barrier arrival to release
	KCompute          // span of application compute, charged by name (Ctx.ChargeAs)
	numKinds
)

var kindNames = [numKinds]string{
	"fork", "steal", "failed-steal", "migrate", "release", "lazy-release",
	"acquire", "cache-miss", "write-back", "eviction", "region-enter", "region-exit",
	"checkout", "task", "task-end", "join", "retry", "blacklist", "prefetch",
	"replica", "sdc-detect", "violation",
	"checkin", "get", "put", "write-back-all", "lazy-write-back-all", "idle", "stall", "barrier",
	"compute",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one recorded occurrence. Dur == 0 means an instant event; a
// span covers [T, T+Dur). Arg and Arg2 are kind-specific:
//
//	KFork        Arg = child thread ID,  Arg2 = parent thread ID
//	KTaskRun     Arg = thread ID (span: one executed segment of the task)
//	KTaskEnd     Arg = thread ID,        Arg2 = parent thread ID (0 = root)
//	KJoin        Arg = child thread ID,  Arg2 = parent thread ID
//	KSteal       Arg = victim rank (span: steal latency on the thief)
//	KFailedSteal Arg = victim rank (span: wasted attempt latency)
//	KCheckout    Arg = bytes            (span: checkout call duration)
//	KRetry       Arg = target rank,     Arg2 = attempt number (span: the
//	             timeout + backoff one transient RMA failure cost its origin)
//	KBlacklist   Arg = victim rank      (span: the penalty window during
//	             which the recording rank skips the victim for steals)
//	KCacheMiss   Arg = bytes fetched
//	KWriteBack   Arg = bytes written back
//	KReplica     Arg = victim rank,     Arg2 = execution number ≥ 2 (span:
//	             one redundant execution of a protected task segment)
//	KSdcDetect   Arg = victim rank,     Arg2 = strike number
//	             (instant: a digest mismatch caught a flip)
//	KViolation   Arg = validator rule code, Arg2 = offending task ID (span:
//	             from the conflicting earlier event — the overlapped
//	             checkout, the retired checkin, or the unreleased write —
//	             to the access that tripped the rule; full diagnostics
//	             travel in the dump's validator section)
//	KEviction    Arg = bytes evicted
//	KAcquire     Arg = releasing rank of the handler (span: Acquire #2)
//	KRelease     Arg = 0 at a join suspension or region exit (Release #3),
//	             1 when a child of a stolen parent completes (Release #2)
//	             (span: the release fence; an instant under NoCache)
//	KMigrate     span over a migrated thread's arrival fence (Acquire #1)
type Event struct {
	T    sim.Time
	Dur  sim.Time
	Rank int
	Kind Kind
	Arg  int64
	Arg2 int64
}

// ring is one rank's buffer. With no capacity limit it is a plain append
// log; with a limit it overwrites the oldest entry once full.
type ring struct {
	buf     []Event
	start   int // the oldest entry, once the ring has wrapped
	dropped uint64
}

func (rg *ring) add(e Event, capPerRank int) {
	if capPerRank <= 0 || len(rg.buf) < capPerRank {
		rg.buf = append(rg.buf, e)
		return
	}
	rg.buf[rg.start] = e
	rg.start++
	if rg.start == capPerRank {
		rg.start = 0
	}
	rg.dropped++
}

// Log is the span ring the Recorder writes to. A nil *Log reads as empty.
type Log struct {
	rings      []ring
	capPerRank int
}

// New creates an empty, unbounded log.
func New() *Log { return &Log{} }

// NewRing creates a log that keeps at most capPerRank most-recent events
// per rank, overwriting the oldest once full. capPerRank <= 0 means
// unbounded.
func NewRing(capPerRank int) *Log { return &Log{capPerRank: capPerRank} }

func (l *Log) rec(ev Event) {
	r := ev.Rank
	if r < 0 {
		r = 0
	}
	for r >= len(l.rings) {
		l.rings = append(l.rings, ring{})
	}
	l.rings[r].add(ev, l.capPerRank)
}

// Len returns the number of retained events (0 for nil).
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	n := 0
	for i := range l.rings {
		n += len(l.rings[i].buf)
	}
	return n
}

// Dropped returns how many events were overwritten across all rings.
func (l *Log) Dropped() uint64 {
	if l == nil {
		return 0
	}
	var n uint64
	for i := range l.rings {
		n += l.rings[i].dropped
	}
	return n
}

// DroppedByRank returns the per-rank overwrite counts (index = rank), or
// nil when no ring has dropped anything — truncation is an exceptional
// condition and the clean path should not allocate.
func (l *Log) DroppedByRank() []uint64 {
	if l == nil || l.Dropped() == 0 {
		return nil
	}
	out := make([]uint64, len(l.rings))
	for i := range l.rings {
		out[i] = l.rings[i].dropped
	}
	return out
}

// Events returns the retained events in canonical order: by end instant
// (T+Dur), then by rank, then in the order the rank recorded them. The
// order is a function of simulated behaviour alone. The host's recording
// order is not: it interleaves ranks by whichever process the kernel
// happened to run, and a rank may write a record for an instant its
// clock has not reached yet (a banked sim.Proc.Charge). A rank records
// every kind but KBlacklist (a span written when its penalty window opens)
// at nondecreasing end instants, so its events keep the order of
// RankEvents.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	total := l.Len()
	if total == 0 {
		return nil
	}
	out := make([]Event, 0, total)
	for i := range l.rings {
		rg := &l.rings[i]
		out = append(append(out, rg.buf[rg.start:]...), rg.buf[:rg.start]...)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].T+out[a].Dur < out[b].T+out[b].Dur })
	return out
}

// RankEvents returns the retained events of one rank in the order the rank
// recorded them (nil for a rank that recorded nothing).
func (l *Log) RankEvents(rank int) []Event {
	if l == nil || rank < 0 || rank >= len(l.rings) {
		return nil
	}
	rg := &l.rings[rank]
	return append(append([]Event(nil), rg.buf[rg.start:]...), rg.buf[:rg.start]...)
}

// Count returns how many retained events have the given kind.
func (l *Log) Count(kind Kind) int {
	if l == nil {
		return 0
	}
	n := 0
	for i := range l.rings {
		for _, e := range l.rings[i].buf {
			if e.Kind == kind {
				n++
			}
		}
	}
	return n
}

// Dump writes one line per event in canonical order (Events).
func (l *Log) Dump(w io.Writer) {
	for _, e := range l.Events() {
		if e.Dur > 0 {
			fmt.Fprintf(w, "%12d ns  rank %3d  %-13s dur %d arg %d %d\n",
				e.T, e.Rank, e.Kind, e.Dur, e.Arg, e.Arg2)
		} else {
			fmt.Fprintf(w, "%12d ns  rank %3d  %-13s %d\n", e.T, e.Rank, e.Kind, e.Arg)
		}
	}
}

// chromeEvent is the Chrome tracing event schema (instant and complete).
type chromeEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	TS   float64          `json:"ts"` // microseconds
	Dur  float64          `json:"dur,omitempty"`
	PID  int              `json:"pid"`
	TID  int              `json:"tid"`
	S    string           `json:"s,omitempty"`
	Args map[string]int64 `json:"args,omitempty"`
}

// ChromeJSON writes the log in the Chrome tracing (about://tracing /
// Perfetto) JSON array format: spans as "X" complete events, the rest as
// instants, with one "thread" (TID) per rank grouped into "processes"
// (PID) by simulated node, rank / coresPerNode (the dump's
// Meta.CoresPerNode); coresPerNode <= 0 puts every rank under PID 0.
func (l *Log) ChromeJSON(w io.Writer, coresPerNode int) error {
	out := make([]chromeEvent, 0, l.Len())
	for _, e := range l.Events() {
		ce := chromeEvent{
			Name: e.Kind.String(),
			TS:   float64(e.T) / 1000,
			TID:  e.Rank,
		}
		if coresPerNode > 0 {
			ce.PID = e.Rank / coresPerNode
		}
		if e.Dur > 0 {
			ce.Ph = "X"
			ce.Dur = float64(e.Dur) / 1000
		} else {
			ce.Ph = "i"
			ce.S = "t"
		}
		if e.Arg != 0 || e.Arg2 != 0 {
			ce.Args = map[string]int64{"arg": e.Arg, "arg2": e.Arg2}
		}
		out = append(out, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// DumpSchema identifies the trace dump document format.
const DumpSchema = "itytrace/v1"

// Meta is a dump's header: run metadata carried alongside the events so
// offline analysis does not need the original configuration, and the
// documents the run embeds, as typed values. ReadDump decodes the whole
// header once and holds it and each section to its schema, so a report
// renders sections that are already checked.
type Meta struct {
	// Schema is DumpSchema; WriteDump sets it.
	Schema       string `json:"schema"`
	Ranks        int    `json:"ranks"`
	CoresPerNode int    `json:"cores_per_node,omitempty"`
	Policy       string `json:"policy,omitempty"`
	// Dropped and DroppedByRank surface ring-buffer truncation: the total
	// overwritten events and the per-rank breakdown (nil when clean).
	// WriteDump computes them from the log itself.
	Dropped       uint64   `json:"dropped,omitempty"`
	DroppedByRank []uint64 `json:"dropped_by_rank,omitempty"`
	// Metrics is the run's "itoyori-metrics/v1" document.
	Metrics *MetricsDoc `json:"metrics,omitempty"`
	// Profile, when present, is the run's streaming-profile snapshot (an
	// "itoyori-profile/v1" document, see internal/profile).
	Profile *profile.Doc `json:"profile,omitempty"`
	// Validator, when present, is the run's checkout-discipline validator
	// snapshot (present iff the run had pgas.Config.Validate on, even when
	// it recorded nothing).
	Validator *ValidatorDoc `json:"validator,omitempty"`
}

// dumpDoc is the on-disk form: the header, then the events as compact
// [t, dur, rank, kind, arg, arg2] tuples in canonical order (Events).
type dumpDoc struct {
	Meta
	Events [][6]int64 `json:"events"`
}

// WriteDump serializes the log and metadata as an "itytrace/v1" JSON
// document for cmd/itytrace.
func (l *Log) WriteDump(w io.Writer, m Meta) error {
	m.Schema = DumpSchema
	m.Dropped, m.DroppedByRank = l.Dropped(), l.DroppedByRank()
	doc := dumpDoc{Meta: m, Events: make([][6]int64, 0, l.Len())}
	for _, e := range l.Events() {
		doc.Events = append(doc.Events,
			[6]int64{int64(e.T), int64(e.Dur), int64(e.Rank), int64(e.Kind), e.Arg, e.Arg2})
	}
	return json.NewEncoder(w).Encode(doc)
}

// ReadDump parses an "itytrace/v1" document back into a Log and its Meta.
// The dump comes from outside the program, so it fails on a document or
// an embedded section of another schema.
func ReadDump(r io.Reader) (*Log, Meta, error) {
	var doc dumpDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, Meta{}, fmt.Errorf("trace: reading dump: %w", err)
	}
	if err := doc.checkSchemas(); err != nil {
		return nil, Meta{}, err
	}
	l := New()
	for _, t := range doc.Events {
		l.rec(Event{
			T:    sim.Time(t[0]),
			Dur:  sim.Time(t[1]),
			Rank: int(t[2]),
			Kind: Kind(t[3]),
			Arg:  t[4],
			Arg2: t[5],
		})
	}
	return l, doc.Meta, nil
}

// checkSchemas holds the dump and every section it carries to its schema.
func (m *Meta) checkSchemas() error {
	bad := func(what, got, want string) error {
		return fmt.Errorf("trace: unsupported %s schema %q (want %q)", what, got, want)
	}
	switch {
	case m.Schema != DumpSchema:
		return bad("dump", m.Schema, DumpSchema)
	case m.Metrics != nil && m.Metrics.Schema != MetricsSchema:
		return bad("metrics", m.Metrics.Schema, MetricsSchema)
	case m.Profile != nil && m.Profile.Schema != profile.Schema:
		return bad("profile", m.Profile.Schema, profile.Schema)
	case m.Validator != nil && m.Validator.Schema != ValidatorSchema:
		return bad("validator", m.Validator.Schema, ValidatorSchema)
	}
	return nil
}

package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ityr/internal/profile"
	"ityr/internal/sim"
)

func TestDumpRoundtrip(t *testing.T) {
	l := fixtureLog()
	meta := Meta{
		Ranks:        2,
		CoresPerNode: 2,
		Policy:       "Write-Back",
		Metrics:      &MetricsDoc{Schema: MetricsSchema, Counters: map[string]uint64{"uth_steals": 4}},
	}
	var b bytes.Buffer
	if err := l.WriteDump(&b, meta); err != nil {
		t.Fatal(err)
	}
	got, gotMeta, err := ReadDump(&b)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta.Ranks != 2 || gotMeta.CoresPerNode != 2 || gotMeta.Policy != "Write-Back" {
		t.Errorf("meta = %+v", gotMeta)
	}
	if m := gotMeta.Metrics; m == nil || m.Schema != MetricsSchema || m.Counters["uth_steals"] != 4 {
		t.Errorf("metrics section = %+v", m)
	}
	want, have := l.Events(), got.Events()
	if len(want) != len(have) {
		t.Fatalf("event count %d != %d", len(have), len(want))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Errorf("event %d: %+v != %+v", i, have[i], want[i])
		}
	}
	// The analysis of the round-tripped log must match the original.
	if a, b := Analyze(l, 2), Analyze(got, 2); a.CritPath != b.CritPath || a.Work != b.Work {
		t.Errorf("analysis drift after roundtrip: %+v vs %+v", a, b)
	}
}

// ReadDump is where a dump from outside the program is checked: it
// rejects a document of another schema, and a wrong schema or malformed
// JSON in any of the three sections a dump embeds.
func TestReadDumpRejectsUnknownSchema(t *testing.T) {
	dump := func(section string) string {
		return `{"schema":"itytrace/v1","ranks":1,` + section + `"events":[]}`
	}
	cases := []struct{ name, doc string }{
		{"dump schema", `{"schema":"bogus/v9","events":[]}`},
		{"not json", `not json`},
		{"metrics schema", dump(`"metrics":{"schema":"bogus","counters":{}},`)},
		{"metrics malformed", dump(`"metrics":{"schema":"itoyori-metrics/v1","counters":[1]},`)},
		{"profile schema", dump(`"profile":{"schema":"bogus/v9","ranks":1},`)},
		{"profile malformed", dump(`"profile":{"schema":"itoyori-profile/v1","ranks":"one"},`)},
		{"validator schema", dump(`"validator":{"schema":"bogus","violations":[]},`)},
		{"validator malformed", dump(`"validator":{"schema":"ityr-validator/v1","violations":{bad}},`)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := ReadDump(strings.NewReader(tc.doc)); err == nil {
				t.Errorf("ReadDump accepted %s", tc.doc)
			}
		})
	}
	// The same sections with their own schemas are read.
	good := dump(`"metrics":{"schema":"itoyori-metrics/v1","counters":{}},` +
		`"profile":{"schema":"itoyori-profile/v1","ranks":1},` +
		`"validator":{"schema":"ityr-validator/v1","violations":[]},`)
	if _, m, err := ReadDump(strings.NewReader(good)); err != nil || m.Metrics == nil || m.Profile == nil || m.Validator == nil {
		t.Errorf("ReadDump(%s) = %+v, %v", good, m, err)
	}
}

// Analyze must take the elapsed range min..max even when ranks record
// out of timestamp order (per-rank rings are only locally sorted), and
// must account span durations in the range end.
func TestAnalyzeOutOfOrderRanks(t *testing.T) {
	l := New()
	l.rec(Event{T: 100, Rank: 0, Kind: KFork, Arg: 1})             // recorded first, but not the earliest
	l.rec(Event{T: 10, Rank: 1, Kind: KAcquire})                   // earliest event, later rank
	l.rec(Event{T: 20, Dur: 500, Rank: 1, Kind: KTaskRun, Arg: 1}) // ends at 520: the true max
	l.rec(Event{T: 110, Rank: 0, Kind: KRelease})                  // recorded last, not the latest
	if a := Analyze(l, 2); a.Elapsed != 510 {
		t.Fatalf("Elapsed = %d, want 510 (10 .. 520)", a.Elapsed)
	}
}

// Satellite regression: Chrome export groups ranks into nodes via PID and
// emits spans as complete ("X") events with microsecond durations.
func TestChromeJSONSpansAndNodePID(t *testing.T) {
	l := New()
	l.rec(Event{T: 1000, Dur: 2000, Rank: 3, Kind: KTaskRun, Arg: 7}) // rank 3 -> node 1
	l.rec(Event{T: 500, Rank: 0, Kind: KFork, Arg: 1})                // rank 0 -> node 0
	var b bytes.Buffer
	if err := l.ChromeJSON(&b, 2); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(b.Bytes(), &evs); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	inst, span := evs[0], evs[1] // canonical order: the instant ends first
	if span["ph"] != "X" || span["dur"] != 2.0 || span["ts"] != 1.0 {
		t.Errorf("span event = %v, want ph X dur 2 ts 1", span)
	}
	if span["pid"] != 1.0 || span["tid"] != 3.0 {
		t.Errorf("span pid/tid = %v/%v, want node 1 / rank 3", span["pid"], span["tid"])
	}
	if inst["ph"] != "i" || inst["pid"] != 0.0 {
		t.Errorf("instant event = %v, want ph i pid 0", inst)
	}
}

func TestRingDropsOldest(t *testing.T) {
	l := NewRing(2)
	for i := int64(1); i <= 5; i++ {
		l.rec(Event{T: sim.Time(i * 10), Rank: 0, Kind: KFork, Arg: i})
	}
	if l.Len() != 2 {
		t.Errorf("Len = %d, want 2", l.Len())
	}
	if l.Dropped() != 3 {
		t.Errorf("Dropped = %d, want 3", l.Dropped())
	}
	evs := l.Events()
	if evs[0].Arg != 4 || evs[1].Arg != 5 {
		t.Errorf("retained args %d,%d, want 4,5", evs[0].Arg, evs[1].Arg)
	}
	if d := l.DroppedByRank(); len(d) != 1 || d[0] != 3 {
		t.Errorf("DroppedByRank = %v, want [3]", d)
	}
}

// The off-switch must be free: a live recorder with the ring and the
// profile off records spans, instants and RMA operations without
// allocating — what lets every call site record unconditionally.
func TestDisabledInstrumentationZeroAllocs(t *testing.T) {
	r := NewRecorder(2, nil, nil)
	if n := testing.AllocsPerRun(100, func() {
		r.Span(0, KSteal, 1, 2, 1, 0)
		r.Span(1, KCheckout, 1, 2, 64, 0)
		r.Instant(0, KFork, 1, 1, 2)
		r.RMA(0, 1, OpGet, 64)
	}); n != 0 {
		t.Errorf("disabled instrumentation allocates %v per event, want 0", n)
	}
}

// The profile snapshot and per-rank drop totals ride the dump's header:
// WriteDump computes drops from the live rings, ReadDump hands both back so
// offline reports can warn and render without the runtime.
func TestDumpProfileAndDropsRoundtrip(t *testing.T) {
	l := NewRing(2)
	for i := int64(1); i <= 5; i++ {
		l.rec(Event{T: sim.Time(i * 10), Rank: 1, Kind: KFork, Arg: i}) // rank 1 drops 3
	}
	l.rec(Event{T: 60, Rank: 0, Kind: KFork, Arg: 9}) // rank 0 drops none
	prof := &profile.Doc{Schema: profile.Schema, Ranks: 2}
	var b bytes.Buffer
	if err := l.WriteDump(&b, Meta{Ranks: 2, Profile: prof}); err != nil {
		t.Fatal(err)
	}
	_, meta, err := ReadDump(&b)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Profile == nil || meta.Profile.Schema != profile.Schema || meta.Profile.Ranks != 2 {
		t.Errorf("profile section = %+v", meta.Profile)
	}
	if meta.Dropped != 3 {
		t.Errorf("Dropped = %d, want 3", meta.Dropped)
	}
	if len(meta.DroppedByRank) != 2 || meta.DroppedByRank[0] != 0 || meta.DroppedByRank[1] != 3 {
		t.Errorf("DroppedByRank = %v, want [0 3]", meta.DroppedByRank)
	}

	var w strings.Builder
	if !DropWarning(&w, meta) {
		t.Fatal("DropWarning did not fire on a truncated dump")
	}
	if !strings.HasPrefix(w.String(), "WARNING:") || !strings.Contains(w.String(), "rank 1: 3") {
		t.Errorf("warning line = %q", w.String())
	}
	if DropWarning(&strings.Builder{}, Meta{Ranks: 2}) {
		t.Error("DropWarning fired on a clean dump")
	}

	var rep strings.Builder
	Report(&rep, "truncated", l, meta)
	if !strings.Contains(rep.String(), "WARNING:") || !strings.Contains(rep.String(), "streaming profile") {
		t.Errorf("report missing the drop warning or the profile section:\n%s", rep.String())
	}
}

// TestDumpWithRackTierStillReads: a profile section written while the
// network model had a rack tier carries a zero {"tier":"rack"} entry
// between node and fabric. Such a dump still decodes, since readers key
// tiers by name and the schema stays itoyori-profile/v1, and the report's
// tier split shows only the tiers that carried traffic.
func TestDumpWithRackTierStillReads(t *testing.T) {
	const old = `{"schema":"itytrace/v1","ranks":2,"cores_per_node":1,` +
		`"profile":{"schema":"itoyori-profile/v1","ranks":2,` +
		`"rollup":{"rma_put_ops":3,"rma_put_bytes":192},` +
		`"tiers":[{"tier":"self","ops":0,"bytes":0},{"tier":"node","ops":0,"bytes":0},` +
		`{"tier":"rack","ops":0,"bytes":0},{"tier":"fabric","ops":3,"bytes":192}],` +
		`"hot_pairs":[{"from":0,"to":1,"ops":3,"bytes":192}],"timeline":{"bucket_ns":0,"kinds":null,"occupancy":null}},` +
		`"events":[[10,0,0,1,1,0]]}`
	l, meta, err := ReadDump(strings.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Profile == nil || len(meta.Profile.Tiers) != 4 || meta.Profile.Tiers[2].Tier != "rack" {
		t.Fatalf("profile tiers = %+v", meta.Profile)
	}
	var rep strings.Builder
	Report(&rep, "old", l, meta)
	out := rep.String()
	if !strings.Contains(out, "comm tier split:") || !strings.Contains(out, "  fabric ") {
		t.Errorf("report has no fabric line in its tier split:\n%s", out)
	}
	if strings.Contains(out, "rack") {
		t.Errorf("report renders the zero rack tier:\n%s", out)
	}
}

package trace

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	if l.Len() != 0 || l.Count(KFork) != 0 || l.Events() != nil {
		t.Fatal("nil log misbehaved")
	}
	var sb strings.Builder
	l.Dump(&sb)
	if sb.Len() != 0 {
		t.Fatal("nil dump wrote output")
	}
}

func TestRecordAndQuery(t *testing.T) {
	l := New()
	l.rec(Event{T: 100, Rank: 0, Kind: KFork})
	l.rec(Event{T: 200, Rank: 1, Kind: KSteal})
	l.rec(Event{T: 300, Rank: 1, Kind: KCacheMiss, Arg: 4096})
	l.rec(Event{T: 400, Rank: 0, Kind: KFork})
	if l.Len() != 4 || l.Count(KFork) != 2 || l.Count(KSteal) != 1 {
		t.Fatalf("counts wrong: %d events, %d forks", l.Len(), l.Count(KFork))
	}
	if l.Events()[2].Arg != 4096 {
		t.Fatal("arg lost")
	}
}

// Events orders by end instant, then rank, then each rank's recording
// order — never by which rank the host happened to record first — and a
// wrapped ring's oldest retained entry still leads its rank.
func TestEventsCanonicalOrder(t *testing.T) {
	l := NewRing(3)
	l.rec(Event{T: 50, Rank: 1, Kind: KFork, Arg: 1})
	l.rec(Event{T: 10, Dur: 40, Rank: 0, Kind: KTaskRun, Arg: 2}) // ends at 50 too
	l.rec(Event{T: 20, Rank: 0, Kind: KFork, Arg: 3})             // ends before both
	l.rec(Event{T: 60, Rank: 1, Kind: KFork, Arg: 4})
	l.rec(Event{T: 60, Rank: 1, Kind: KJoin, Arg: 5})
	l.rec(Event{T: 70, Rank: 1, Kind: KJoin, Arg: 6}) // drops arg 1
	var got []int64
	for _, e := range l.Events() {
		got = append(got, e.Arg)
	}
	if want := []int64{3, 2, 4, 5, 6}; !slices.Equal(got, want) {
		t.Errorf("Events args = %v, want %v", got, want)
	}
	got = got[:0]
	for _, e := range l.RankEvents(1) {
		got = append(got, e.Arg)
	}
	if want := []int64{4, 5, 6}; !slices.Equal(got, want) {
		t.Errorf("RankEvents(1) args = %v, want %v", got, want)
	}
	if l.RankEvents(2) != nil {
		t.Error("RankEvents of a rank that recorded nothing is not nil")
	}
}

func TestDumpLines(t *testing.T) {
	l := New()
	for i := 0; i < 5; i++ {
		l.rec(Event{T: int64(i * 100), Rank: i % 2, Kind: KFork})
	}
	l.rec(Event{T: 600, Dur: 30, Rank: 1, Kind: KSteal})
	var sb strings.Builder
	l.Dump(&sb)
	out := sb.String()
	if lines := strings.Count(out, "\n"); lines != 6 {
		t.Fatalf("dump has %d lines, want 6", lines)
	}
	if !strings.Contains(out, "fork") || !strings.Contains(out, "steal         dur 30") {
		t.Fatalf("dump missing kinds or the span's duration:\n%s", out)
	}
}

func TestChromeJSONWellFormed(t *testing.T) {
	l := New()
	l.rec(Event{T: 1500, Rank: 2, Kind: KAcquire})
	l.rec(Event{T: 2500, Rank: 3, Kind: KRelease})
	var sb strings.Builder
	if err := l.ChromeJSON(&sb, 0); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]interface{}
	if err := json.Unmarshal([]byte(sb.String()), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(parsed) != 2 || parsed[0]["name"] != "acquire" || parsed[0]["tid"] != float64(2) {
		t.Fatalf("chrome events wrong: %v", parsed)
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if !strings.HasPrefix(Kind(200).String(), "kind(") {
		t.Fatal("unknown kind should fall back")
	}
}

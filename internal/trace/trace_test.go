package trace

import (
	"encoding/json"
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

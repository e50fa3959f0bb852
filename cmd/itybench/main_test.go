package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"ityr/internal/bench"
)

// TestUsageErrors pins the CLI's contract for a mistyped invocation: exit
// status 2, nothing on stdout, and a message that lists what would have
// been accepted — before any simulation runs.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string
	}{
		{"unknown suite", []string{"fig12"}, []string{`unknown suite "fig12"`, "fig7", "table1", "abl", "figures", "perf", "taskbench", "faults", "scaling", "fleet"}},
		{"unknown scale", []string{"-scale", "huge", "fig7"}, []string{`unknown scale "huge"`, "smoke", "quick", "full"}},
		{"removed knob flag", []string{"-sched", "fbc", "fig7"}, []string{"-sched", "usage: itybench [flags] <suite>"}},
		{"flag after suite", []string{"fig7", "-scale", "smoke"}, []string{"flags first"}},
		{"removed mode flag", []string{"-fig", "7"}, []string{"usage: itybench [flags] <suite>"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Errorf("exit status %d, want 2", code)
			}
			if stdout.Len() != 0 {
				t.Errorf("usage error wrote to stdout: %q", stdout.String())
			}
			for _, w := range tc.want {
				if !strings.Contains(stderr.String(), w) {
					t.Errorf("stderr does not mention %q:\n%s", w, stderr.String())
				}
			}
		})
	}
}

// TestReportToStdout pins what `itybench -o - <suite> | jq` relies on:
// stdout carries the report and nothing else, the table moves to stderr.
func TestReportToStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scale", "smoke", "-heartbeat", "0", "-o", "-", "perf"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d\n%s", code, stderr.String())
	}
	if !json.Valid(stdout.Bytes()) {
		t.Fatalf("stdout is not one JSON value:\n%s", stdout.String())
	}
	rep, err := bench.ReadReport(&stdout)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Suite != "perf" || rep.Scale != "smoke" || len(rep.Rows) == 0 {
		t.Errorf("unexpected report: suite %q scale %q, %d rows", rep.Suite, rep.Scale, len(rep.Rows))
	}
	if !strings.Contains(stderr.String(), "== Perf suite") {
		t.Errorf("table did not move to stderr:\n%s", stderr.String())
	}
}

// TestReadmeNamesEverySuite holds README.md's suite list to the dispatch
// table: its "`itybench -h` lists the suites (...)" sentence names exactly
// the bench.Suites entries, in order.
func TestReadmeNamesEverySuite(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const lead = "`itybench -h` lists the suites ("
	_, rest, ok := strings.Cut(string(readme), lead)
	if !ok {
		t.Fatalf("README.md has no %q sentence", lead)
	}
	list, _, _ := strings.Cut(rest, ")")
	var named, want []string
	for i, part := range strings.Split(list, "`") {
		if i%2 == 1 {
			named = append(named, part)
		}
	}
	for _, s := range bench.Suites {
		want = append(want, s.Name)
	}
	if !slices.Equal(named, want) {
		t.Errorf("README.md's suite list names %v; bench.Suites is %v", named, want)
	}
}

package main

import (
	"strings"
	"testing"
)

func TestRunSumsMatch(t *testing.T) {
	var out strings.Builder
	if err := run(&out, 1<<16); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "match=true") {
		t.Fatalf("output lacks match=true:\n%s", out.String())
	}
}

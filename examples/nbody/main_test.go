package main

import (
	"fmt"
	"strings"
	"testing"
)

// TestRunWithinErrorBound runs every policy on a small problem and holds
// each printed potential error to the bound the fmm tests use at θ=0.3.
func TestRunWithinErrorBound(t *testing.T) {
	var out strings.Builder
	if err := run(&out, 500); err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, line := range strings.Split(out.String(), "\n") {
		i := strings.Index(line, "potential err ")
		if i < 0 {
			continue
		}
		lines++
		var perr float64
		if _, err := fmt.Sscan(line[i+len("potential err "):], &perr); err != nil || !(perr <= 5e-3) {
			t.Errorf("%q: want a potential error of at most 5e-3", line)
		}
	}
	if lines != 4 {
		t.Fatalf("%d policy lines, want 4:\n%s", lines, out.String())
	}
}

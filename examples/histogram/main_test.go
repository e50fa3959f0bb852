package main

import (
	"strings"
	"testing"
)

func TestRunLosesNoValue(t *testing.T) {
	var out strings.Builder
	if err := run(&out, 1<<16); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "histogram of 65536 values") {
		t.Fatalf("output does not count every value:\n%s", out.String())
	}
}

package main

import (
	"fmt"
	"strings"
	"testing"

	"ityr/internal/apps/uts"
)

// TestRunCountsEveryNode: each policy's traversal must print uts.CountHost's
// node count.
func TestRunCountsEveryNode(t *testing.T) {
	tree := uts.Tree{Name: "test", Seed: 11, RootKids: 50, MeanKids: 0.9, MaxDepth: 100}
	var out strings.Builder
	if err := run(&out, tree); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("(%d nodes, ", uts.CountHost(tree))
	if n := strings.Count(out.String(), want); n != 2 {
		t.Fatalf("%d of 2 policy lines report %q:\n%s", n, want, out.String())
	}
}

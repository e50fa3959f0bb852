// Package layercheck pins the import graph of the runtime's layers: which
// ityr/internal packages each may import, that nothing imports upward
// against sim → netmodel → rma → pgas → uth → core, and that the three
// middle layers reach observability through exactly one package (the
// recorder in internal/trace). It reads import declarations with go/build —
// no compile — and runs with `go test ./...`.
package layercheck

import (
	"go/build"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const internalPrefix = "ityr/internal/"

// order is the layering, lowest first.
var order = []string{"sim", "netmodel", "rma", "pgas", "uth", "core"}

// observability are the packages a layer could report to.
var observability = map[string]bool{"profile": true, "trace": true}

// allowed lists, per pinned package, every ityr/internal package its
// non-test files may import. The observability packages are pinned too, so
// the recorder cannot grow a dependency on a layer that reports to it.
var allowed = map[string][]string{
	"sim":      {},
	"netmodel": {"sim"},
	"profile":  {"netmodel", "sim"},
	"trace":    {"profile", "sim"},
	"rma":      {"fault", "netmodel", "sim", "trace"},
	"pgas":     {"memblock", "region", "rma", "sim", "trace"},
	"uth":      {"rma", "sim", "trace"},
	"core":     {"fault", "netmodel", "pgas", "profile", "rma", "sim", "trace", "uth"},
}

// internalImports returns the ityr/internal packages pkg's non-test files
// import, without the prefix.
func internalImports(t *testing.T, pkg string) []string {
	t.Helper()
	p, err := build.ImportDir(filepath.Join("..", "..", pkg), 0)
	if err != nil {
		t.Fatalf("reading internal/%s: %v", pkg, err)
	}
	var out []string
	for _, imp := range p.Imports {
		if strings.HasPrefix(imp, internalPrefix) {
			out = append(out, strings.TrimPrefix(imp, internalPrefix))
		}
	}
	sort.Strings(out)
	return out
}

func TestLayerImports(t *testing.T) {
	level := map[string]int{}
	for i, p := range order {
		level[p] = i
	}
	for pkg, allow := range allowed {
		lp, isLayer := level[pkg]
		if !isLayer {
			lp = level["rma"] // observability sits just below its lowest caller
		}
		ok := map[string]bool{}
		for _, a := range allow {
			ok[a] = true
		}
		var obs []string
		for _, imp := range internalImports(t, pkg) {
			if !ok[imp] {
				t.Errorf("internal/%s imports internal/%s, which its layer may not (allowed: %v)", pkg, imp, allow)
			}
			if li, pinned := level[imp]; pinned && li >= lp {
				t.Errorf("internal/%s imports internal/%s upward against %s", pkg, imp, strings.Join(order, " → "))
			}
			if observability[imp] {
				obs = append(obs, imp)
			}
		}
		switch pkg {
		case "rma", "pgas", "uth":
			if len(obs) != 1 {
				t.Errorf("internal/%s imports observability packages %v; it must report through exactly one", pkg, obs)
			}
		}
	}
}

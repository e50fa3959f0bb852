// Package layercheck pins the import graph of the runtime's layers: which
// ityr/internal packages each may import, that nothing imports upward
// against sim → netmodel → rma → pgas → uth → core, and that the three
// middle layers reach observability through exactly one package (the
// recorder in internal/trace), and that the runtime draws no math/rand
// numbers. It pins the programs too: the apps, the
// examples and the app commands are written on the public ityr API alone.
// It reads import declarations with go/build — no compile — and runs with
// `go test ./...`.
package layercheck

import (
	"go/build"
	"os"
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

// moduleRoot is the module's root directory, relative to this package.
var moduleRoot = filepath.Join("..", "..", "..")

// internalImports returns the ityr/internal packages that the non-test files
// of dir (relative to the module root) import, without the prefix.
func internalImports(t *testing.T, dir string) []string {
	t.Helper()
	p, err := build.ImportDir(filepath.Join(moduleRoot, dir), 0)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
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
		for _, imp := range internalImports(t, "internal/"+pkg) {
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

// TestRuntimeDrawsAreSplitmix: the simulator and the four runtime layers
// import no math/rand. Every draw they make (steal victims, replica
// selection) is a seeded splitmix stream, a word of state per stream.
func TestRuntimeDrawsAreSplitmix(t *testing.T) {
	for _, pkg := range []string{"sim", "rma", "pgas", "uth", "core"} {
		p, err := build.ImportDir(filepath.Join(moduleRoot, "internal", pkg), 0)
		if err != nil {
			t.Fatalf("reading internal/%s: %v", pkg, err)
		}
		for _, imp := range p.Imports {
			if imp == "math/rand" || strings.HasPrefix(imp, "math/rand/") {
				t.Errorf("internal/%s imports %s; a runtime draw is a seeded splitmix stream", pkg, imp)
			}
		}
	}
}

// TestProgramImports walks every app, example and app command by directory,
// so a new one is pinned without a table edit. Within the module their
// non-test files may import only ityr and the apps; the commands may also
// import internal/obs, their shared flag and dump skeleton.
func TestProgramImports(t *testing.T) {
	var dirs []string
	for _, pattern := range []string{"internal/apps/*", "examples/*", "cmd/cilksort", "cmd/fmm", "cmd/utsmem"} {
		m, err := filepath.Glob(filepath.Join(moduleRoot, pattern))
		if err != nil || len(m) == 0 {
			t.Fatalf("%s matches no directory (%v)", pattern, err)
		}
		for _, d := range m {
			if fi, err := os.Stat(d); err != nil || !fi.IsDir() {
				continue
			}
			rel, _ := filepath.Rel(moduleRoot, d)
			dirs = append(dirs, filepath.ToSlash(rel))
		}
	}
	for _, dir := range dirs {
		for _, imp := range internalImports(t, dir) {
			ok := strings.HasPrefix(imp, "apps/") || imp == "obs" && strings.HasPrefix(dir, "cmd/")
			if !ok {
				t.Errorf("%s imports internal/%s; a program may import only ityr and internal/apps/* (and a command internal/obs)", dir, imp)
			}
		}
	}
}

package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ityr"
	"ityr/internal/apps/cilksort"
)

// writeFile writes one output of a run the way the app binaries' flags do.
func writeFile(t *testing.T, path string, write func(io.Writer) error) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestExtractionMatchesTheRunsDocuments: the -metrics and -profile
// documents itytrace extracts from a dump are byte for byte the ones the
// run writes through its own -metrics and -profile flags, and the report
// renders every section the dump carries.
func TestExtractionMatchesTheRunsDocuments(t *testing.T) {
	cfg := ityr.Config{Ranks: 4, CoresPerNode: 2, Seed: 3, Trace: true, Profile: true}
	cfg.Pgas.Validate = true
	rt := ityr.NewRuntime(cfg)
	if _, err := cilksort.Run(rt, cilksort.Params{N: 4096, Cutoff: 256, Seed: 3, Dist: ityr.BlockCyclicDist}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	for name, write := range map[string]func(io.Writer) error{
		"run.trace":   rt.WriteTrace,
		"run.metrics": rt.WriteMetrics,
		"run.profile": rt.WriteProfile,
	} {
		writeFile(t, path(name), write)
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-metrics", path("x.metrics"), "-profile", path("x.profile"), path("run.trace")}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d\n%s", code, stderr.String())
	}
	for _, doc := range []string{"metrics", "profile"} {
		own, err := os.ReadFile(path("run." + doc))
		if err != nil {
			t.Fatal(err)
		}
		extracted, err := os.ReadFile(path("x." + doc))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(own, extracted) {
			t.Errorf("itytrace -%s differs from the run's own document:\n%s\nvs\n%s", doc, extracted, own)
		}
	}
	for _, want := range []string{"critical path", "steals", "cache (policy", "streaming profile", "validator: clean"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("report missing %q:\n%s", want, stdout.String())
		}
	}
}

// TestBadDumpExitsOne: a dump whose embedded section has another schema
// or is malformed (trace's TestReadDumpRejectsUnknownSchema has every
// case) fails with status 1 and names the problem before printing any
// report.
func TestBadDumpExitsOne(t *testing.T) {
	dump := func(section string) string {
		return `{"schema":"itytrace/v1","ranks":1,` + section + `"events":[]}`
	}
	cases := []struct{ name, doc, want string }{
		{"metrics schema", dump(`"metrics":{"schema":"bogus","counters":{}},`), "unsupported metrics schema"},
		{"profile schema", dump(`"profile":{"schema":"bogus/v9","ranks":1},`), "unsupported profile schema"},
		{"validator schema", dump(`"validator":{"schema":"bogus","violations":[]},`), "unsupported validator schema"},
		{"metrics malformed", dump(`"metrics":{"schema":"itoyori-metrics/v1","counters":[1]},`), "reading dump"},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(dir, tc.name+".trace")
			if err := os.WriteFile(p, []byte(tc.doc), 0o644); err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := run([]string{p}, &stdout, &stderr); code != 1 {
				t.Errorf("exit status %d, want 1", code)
			}
			if stdout.Len() != 0 {
				t.Errorf("bad dump printed a report: %q", stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr does not mention %q: %q", tc.want, stderr.String())
			}
		})
	}
}

// TestUsage: no dump or an unknown flag is a usage error, status 2.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"a", "b"}, {"-bogus", "x"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit status %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), "usage: itytrace [flags] DUMP") {
			t.Errorf("%q: no usage on stderr: %q", args, stderr.String())
		}
	}
}

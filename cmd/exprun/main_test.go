package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectedExperiments(t *testing.T) {
	if err := run([]string{"-exp", "t1, f1,f2"}); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "f99"}); err == nil {
		t.Fatal("want error for unknown experiment")
	}
}

// captureStdout runs f with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = old }()
	ferr := f()
	if cerr := w.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	out, rerr := io.ReadAll(r)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if ferr != nil {
		t.Fatal(ferr)
	}
	return string(out)
}

// TestParallelOutputIdentical checks the end-to-end determinism promise:
// the tool's stdout is byte-identical whether experiments build serially
// or across workers.
func TestParallelOutputIdentical(t *testing.T) {
	args := func(workers string) []string {
		return []string{"-exp", "t1,f1,f2", "-parallel", workers}
	}
	serial := captureStdout(t, func() error { return run(args("1")) })
	parallel := captureStdout(t, func() error { return run(args("4")) })
	if serial == "" {
		t.Fatal("no output")
	}
	if serial != parallel {
		t.Fatalf("-parallel 4 output diverged from -parallel 1:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

func TestProgressFlag(t *testing.T) {
	if err := run([]string{"-exp", "t1", "-progress", "-parallel", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestFormats(t *testing.T) {
	for _, format := range []string{"text", "markdown", "md", "csv"} {
		if err := run([]string{"-exp", "t1", "-format", format}); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
	}
	if err := run([]string{"-exp", "t1", "-format", "yaml"}); err == nil {
		t.Fatal("want error for unknown format")
	}
}

// TestTraceDirCoversPlatformRigs checks that -trace-dir reaches the
// big.LITTLE and shared-clock rigs: F15's eight runs and F21's three
// each write one trace.
func TestTraceDirCoversPlatformRigs(t *testing.T) {
	dir := t.TempDir()
	captureStdout(t, func() error { return run([]string{"-exp", "f15,f21", "-trace-dir", dir}) })
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 11 {
		t.Fatalf("-trace-dir wrote %d traces for f15,f21, want 11", len(files))
	}
}

// TestTraceDirNamesRunsDeterministically checks that -trace-dir names
// each run by what it simulates: F15's cluster-aware and big-only runs of
// one config land in distinct files, the cluster-aware traces carry the
// governor's decisions, and a serial and a parallel invocation write the
// same file set, byte for byte.
func TestTraceDirNamesRunsDeterministically(t *testing.T) {
	read := func(parallel string) map[string][]byte {
		t.Helper()
		dir := t.TempDir()
		captureStdout(t, func() error { return run([]string{"-exp", "f15,f21", "-parallel", parallel, "-trace-dir", dir}) })
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]byte, len(files))
		for _, f := range files {
			b, err := os.ReadFile(filepath.Join(dir, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[f.Name()] = b
		}
		return out
	}
	serial, parallel := read("1"), read("4")
	if len(serial) != 11 || len(parallel) != 11 {
		t.Fatalf("wrote %d and %d traces for f15,f21, want 11 each", len(serial), len(parallel))
	}
	aware := 0
	for name, b := range serial {
		if !bytes.Equal(b, parallel[name]) {
			t.Errorf("%s differs between a serial and a parallel invocation", name)
		}
		if strings.Contains(name, "_biglittle-aware_") {
			aware++
			if n := bytes.Count(b, []byte(`"ev":"decision"`)); n == 0 {
				t.Errorf("%s: a cluster-aware trace with no governor decisions", name)
			}
		}
	}
	if aware != 4 {
		t.Fatalf("%d cluster-aware traces, want F15's four", aware)
	}
}

package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"videodvfs"
	"videodvfs/internal/sim"
	"videodvfs/internal/video"
)

// TestMain runs the test binary as dvfsim itself when DVFSIM_AS_MAIN is
// set, so a test can run the command in a child process it can kill.
func TestMain(m *testing.M) {
	if os.Getenv("DVFSIM_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// A huge finite duration generated content until memory ran out; it must
// fail at once. dvfsim runs in a child process under a deadline, so a
// regression is killed instead of exhausting the machine.
func TestRejectsHugeDurationFast(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-duration", "1e15")
	cmd.Env = append(os.Environ(), "DVFSIM_AS_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case ctx.Err() != nil:
		t.Fatal("-duration 1e15: still running after 2 s")
	case !errors.As(err, &exit) || exit.ExitCode() != 1:
		t.Fatalf("-duration 1e15: err = %v, want exit status 1 (output %q)", err, out)
	case !strings.Contains(string(out), "cap"):
		t.Fatalf("-duration 1e15: output %q does not name the cap", out)
	}
}

func TestRunDefaultFlags(t *testing.T) {
	if err := run([]string{"-duration", "10"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllGovernorsAndNets(t *testing.T) {
	for _, gov := range []string{"performance", "ondemand", "energyaware", "oracle"} {
		if err := run([]string{"-governor", gov, "-duration", "5"}); err != nil {
			t.Fatalf("%s: %v", gov, err)
		}
	}
	for _, net := range []string{"wifi", "lte", "umts"} {
		if err := run([]string{"-net", net, "-duration", "5"}); err != nil {
			t.Fatalf("%s: %v", net, err)
		}
	}
}

func TestRunOptions(t *testing.T) {
	args := []string{
		"-governor", "energyaware", "-device", "midrange", "-res", "480p",
		"-title", "news", "-abr", "bba", "-net", "lte", "-duration", "8",
		"-seed", "3", "-buffer", "4", "-lowwater", "2", "-fastdormancy",
		"-nobackground",
	}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-governor", "warp"},
		{"-device", "toaster"},
		{"-res", "9000p"},
		{"-title", "nature"},
		{"-net", "pigeon", "-duration", "5"},
		{"-abr", "mpc", "-duration", "5"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v: want error", args)
		}
	}
}

func TestTraceReplay(t *testing.T) {
	// Write a trace in tracegen's format and replay it end to end.
	dir := t.TempDir()
	trace := dir + "/v.csv"
	spec := video.DefaultSpec(video.TitleNews, video.R480p)
	stream, err := video.Generate(spec, 5*sim.Second, 9)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := video.WriteTrace(f, stream); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-videotrace", trace, "-res", "480p", "-title", "news"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-videotrace", dir + "/missing.csv"}); err == nil {
		t.Fatal("want error for missing trace file")
	}
}

func TestBWTraceFileReplay(t *testing.T) {
	// Write a bandwidth trace in the canonical JSONL form and replay it
	// through the full -net trace flag plumbing.
	tr := videodvfs.BWTrace{Samples: []videodvfs.BWSample{
		{Start: 0, End: 2, Bytes: 2.5e6, Fetch: 0},
		{Start: 2.2, End: 4, Bytes: 2.2e6, Fetch: 1},
	}}
	path := t.TempDir() + "/bw.jsonl"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := videodvfs.WriteBWTrace(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	args := []string{
		"-net", "trace", "-trace-file", path, "-governor", "ondemand",
		"-res", "360p", "-title", "news", "-duration", "6",
		"-nobackground", "-strict", "-json",
	}
	if err := run(args); err != nil {
		t.Fatalf("dvfsim -net trace: %v", err)
	}
	// Omitting the trace file must fail with the config error, not panic.
	err = run([]string{"-net", "trace", "-duration", "1"})
	if err == nil || !strings.Contains(err.Error(), "trace") {
		t.Fatalf("missing -trace-file: got %v", err)
	}
}

func TestBatchText(t *testing.T) {
	var buf strings.Builder
	cfg := videodvfs.DefaultSession()
	cfg.Duration = 8 * sim.Second
	if err := batchRun(&buf, cfg, 3, 2, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"batch: 3 sessions", "seeds=1..3", "seed 1", "seed 3", "aggregate over 3 runs (0 failed)", "cpu_j", "mean_ghz"} {
		if !strings.Contains(out, want) {
			t.Errorf("batch report missing %q:\n%s", want, out)
		}
	}
}

func TestBatchJSON(t *testing.T) {
	var buf strings.Builder
	cfg := videodvfs.DefaultSession()
	cfg.Duration = 8 * sim.Second
	if err := batchRun(&buf, cfg, 2, 0, true); err != nil {
		t.Fatal(err)
	}
	var docs []map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &docs); err != nil {
		t.Fatalf("batch -json is not a JSON array: %v\n%s", err, buf.String())
	}
	if len(docs) != 2 {
		t.Fatalf("got %d docs, want 2", len(docs))
	}
	if docs[0]["seed"] != float64(1) || docs[1]["seed"] != float64(2) {
		t.Fatalf("seeds out of order: %v, %v", docs[0]["seed"], docs[1]["seed"])
	}
	if docs[0]["cpuJ"] == nil || docs[0]["completed"] != true {
		t.Fatalf("doc missing fields: %v", docs[0])
	}
}

func TestBatchReportsFailures(t *testing.T) {
	var buf strings.Builder
	cfg := videodvfs.DefaultSession()
	// A 5 s horizon starves every 60 s session: all runs must fail and
	// batchRun must say so rather than print empty aggregates quietly.
	cfg.Horizon = 5 * sim.Second
	err := batchRun(&buf, cfg, 2, 1, false)
	if err == nil {
		t.Fatal("want error when every run fails")
	}
	if !strings.Contains(err.Error(), "2 of 2 runs failed") {
		t.Fatalf("error should count failures: %v", err)
	}
	if !strings.Contains(buf.String(), "FAILED") {
		t.Fatalf("report should mark failed seeds:\n%s", buf.String())
	}
}

func TestBatchFlagWiring(t *testing.T) {
	if err := run([]string{"-batch", "2", "-duration", "5"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-batch", "2", "-duration", "5", "-timeline", t.TempDir() + "/x.csv"}); err == nil {
		t.Fatal("want error for -batch with -timeline")
	}
}

func TestJSONOutput(t *testing.T) {
	if err := run([]string{"-duration", "5", "-json"}); err != nil {
		t.Fatal(err)
	}
}

func TestTimelineOutput(t *testing.T) {
	out := t.TempDir() + "/tl.csv"
	if err := run([]string{"-duration", "5", "-timeline", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := len(data)
	if lines == 0 {
		t.Fatal("empty timeline")
	}
	head := string(data[:30])
	if head[:4] != "t_s," {
		t.Fatalf("timeline header wrong: %q", head)
	}
}

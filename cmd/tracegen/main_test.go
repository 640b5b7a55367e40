package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain runs the test binary as tracegen itself when TRACEGEN_AS_MAIN
// is set, so a test can run the command in a child process it can kill.
func TestMain(m *testing.M) {
	if os.Getenv("TRACEGEN_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestVideoTraceToFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "v.csv")
	args := []string{"-kind", "video", "-title", "news", "-res", "480p",
		"-duration", "5", "-seed", "2", "-out", out}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "index,type,pts_s,bits,cycles" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 1+150 { // 5 s at 30 fps
		t.Fatalf("rows = %d, want 151", len(lines))
	}
}

func TestBandwidthTraceToFile(t *testing.T) {
	for _, net := range []string{"lte", "umts"} {
		out := filepath.Join(t.TempDir(), net+".csv")
		if err := run([]string{"-kind", "bandwidth", "-net", net, "-duration", "60", "-out", out}); err != nil {
			t.Fatalf("%s: %v", net, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), "start_s,bps\n") {
			t.Fatalf("%s: bad header", net)
		}
	}
}

func TestRejectsBadArgs(t *testing.T) {
	cases := [][]string{
		{"-kind", "audio"},
		{"-kind", "video", "-title", "nature"},
		{"-kind", "video", "-res", "9000p"},
		{"-kind", "bandwidth", "-net", "pigeon"},
		{"-kind", "video", "-duration", "NaN"},
		{"-kind", "bandwidth", "-duration", "NaN"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v: want error", args)
		}
	}
}

// A huge finite duration generated until memory ran out; it must fail at
// once. tracegen runs in a child process under a deadline, so a
// regression is killed instead of exhausting the machine.
func TestRejectsHugeDurationFast(t *testing.T) {
	for _, kind := range []string{"video", "bandwidth"} {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], "-kind", kind, "-duration", "1e15")
		cmd.Env = append(os.Environ(), "TRACEGEN_AS_MAIN=1")
		out, err := cmd.CombinedOutput()
		timedOut := ctx.Err() != nil
		cancel()
		var exit *exec.ExitError
		switch {
		case timedOut:
			t.Errorf("-kind %s -duration 1e15: still running after 2 s", kind)
		case !errors.As(err, &exit) || exit.ExitCode() != 1:
			t.Errorf("-kind %s -duration 1e15: err = %v, want exit status 1 (output %q)", kind, err, out)
		case !strings.Contains(string(out), "cap"):
			t.Errorf("-kind %s -duration 1e15: output %q does not name the cap", kind, out)
		}
	}
}

package main

import (
	"context"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"videodvfs/internal/experiments"
	"videodvfs/internal/netsim"
	"videodvfs/internal/sim"
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

// readBandwidth generates a bandwidth trace file and loads it the way
// dvfsim's -trace-file does.
func readBandwidth(t *testing.T, args ...string) netsim.Trace {
	t.Helper()
	out := filepath.Join(t.TempDir(), "bw.jsonl")
	if err := run(append([]string{"-kind", "bandwidth", "-out", out}, args...)); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := netsim.ReadTrace(f)
	if err != nil {
		t.Fatalf("generated trace does not load: %v", err)
	}
	return tr
}

func TestBandwidthTraceToFile(t *testing.T) {
	for _, net := range []string{"lte", "umts"} {
		tr := readBandwidth(t, "-net", net, "-duration", "60")
		if tr.Fetches() != 1 {
			t.Fatalf("%s: trace spans %d fetches, want 1", net, tr.Fetches())
		}
		if end := tr.Duration(); end > 60*sim.Second {
			t.Fatalf("%s: trace ends at %v, after the requested 60 s", net, end)
		}
	}
}

// A generated link, written and read back, replays at the rates the
// Markov process drew over the span its samples cover: in a step at the
// step's rate, in an outage at 0. An outage that ends the link writes no
// sample, and netsim.Trace holds the last sample's rate after the last
// sample, so that tail replays at the last non-zero step's rate (LTE seed
// 8 ends so). A short run over each file plays with the invariant
// checker armed.
func TestBandwidthTraceReplaysGeneratedRates(t *testing.T) {
	const dur = 120 * sim.Second
	for _, tc := range []struct {
		net          string
		seed         int64
		endsInOutage bool
	}{{"lte", 4, false}, {"umts", 11, false}, {"lte", 8, true}} {
		tr := readBandwidth(t, "-net", tc.net, "-duration", "120", "-seed", strconv.FormatInt(tc.seed, 10))
		steps, err := markovSteps(tc.net, dur, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		if final := steps.Trace[len(steps.Trace)-1]; (final.Bps == 0) != tc.endsInOutage {
			t.Fatalf("%s seed %d: link ends in an outage: %v, want %v", tc.net, tc.seed, final.Bps == 0, tc.endsInOutage)
		}
		outages := 0
		first, last := tr.Samples[0].Start, tr.Duration()
		lastRate, _ := tr.Rate(tr.Samples[len(tr.Samples)-1].Start)
		for i, st := range steps.Trace {
			end := dur
			if i+1 < len(steps.Trace) {
				end = steps.Trace[i+1].Start
			}
			if st.Bps == 0 {
				outages++
			}
			for _, at := range []sim.Time{st.Start, (st.Start + end) / 2, end - (end-st.Start)/1e6} {
				if at < first {
					continue
				}
				got, _ := tr.Rate(at)
				want, _ := steps.Rate(at)
				if at >= last {
					// The trailing outage: generated at 0, replayed at the
					// last sample's rate.
					if want != 0 || got != lastRate {
						t.Fatalf("%s seed %d: after the last sample, at %v s, replay rate %v and generated %v; want %v and 0",
							tc.net, tc.seed, at.Seconds(), got, want, lastRate)
					}
					continue
				}
				if math.Abs(got-want) > 1e-9*want {
					t.Fatalf("%s seed %d: replay rate at %v s = %v, generated %v", tc.net, tc.seed, at.Seconds(), got, want)
				}
			}
		}
		if outages == 0 || len(tr.Samples) != len(steps.Trace)-outages {
			t.Fatalf("%s seed %d: %d samples for %d steps with %d outages; want one sample per non-zero step and some outage",
				tc.net, tc.seed, len(tr.Samples), len(steps.Trace), outages)
		}

		cfg := experiments.DefaultRunConfig()
		cfg.Net = experiments.NetTrace
		cfg.BWTrace = &tr
		cfg.Duration = 10 * sim.Second
		cfg.Strict = true
		if _, err := experiments.Run(cfg); err != nil {
			t.Fatalf("%s seed %d: replaying the generated trace: %v", tc.net, tc.seed, err)
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

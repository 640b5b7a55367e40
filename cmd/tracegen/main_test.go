package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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

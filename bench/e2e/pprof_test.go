package main

import (
	"math"
	"os"
	"testing"
)

func TestBucketTopFixture(t *testing.T) {
	data, err := os.ReadFile("testdata/pprof_top.txt")
	if err != nil {
		t.Fatal(err)
	}
	shares, err := bucketTop(string(data))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, n := range shareNames() {
		v, ok := shares[n]
		if !ok {
			t.Errorf("share %s missing", n)
		}
		sum += v
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("shares sum to %g, want 1 ± 0.01", sum)
	}
	want := map[string]float64{
		"sim.self_share":            0.25,
		"cpu.self_share":            0.12,
		"runtime.malloc.self_share": 0.10, // mallocgc + memclrNoHeapPointers
		"runtime.map.self_share":    0.11, // mapaccess + internal/runtime/maps + aeshashbody
		"runtime.gc.self_share":     0.05,
		"runtime.sched.self_share":  0.045, // futex + sync.Mutex
		"json.self_share":           0.06,  // encoding/json + reflect
		"math.self_share":           0.03,
		"net.self_share":            0.05, // syscall + net/http
		"server.self_share":         0.02,
		"fleet.self_share":          0.015,
		"cohort.self_share":         0.01,
		"video.self_share":          0.007,
		// slices, an unknown module, an unlisted module package, memmove,
		// the benchmark's own main and an assembly helper.
		"other.self_share": 0.133,
		"abr.self_share":   0,
	}
	for n, w := range want {
		if math.Abs(shares[n]-w) > 1e-9 {
			t.Errorf("%s = %g, want %g", n, shares[n], w)
		}
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"videodvfs/internal/netsim.Steps.Rate":                   "netsim",
		"videodvfs/internal/experiments.(*Session).Reset":        "experiments",
		"videodvfs/internal/stress.Play":                         "other",
		"videodvfs.Run":                                          "other",
		"runtime.mallocgcSmallScanNoHeader":                      "runtime.malloc",
		"runtime.(*mspan).writeHeapBitsSmall":                    "runtime.malloc",
		"runtime.(*mspan).sweep":                                 "runtime.gc",
		"runtime.gcDrain":                                        "runtime.gc",
		"runtime.memhash64":                                      "runtime.map",
		"runtime.findRunnable":                                   "runtime.sched",
		"runtime.netpoll":                                        "net",
		"runtime.memmove":                                        "other",
		"internal/poll.(*FD).Read":                               "net",
		"math/rand.(*Rand).Float64":                              "math",
		"strconv.formatBits":                                     "other",
		"encoding/json.Marshal":                                  "json",
		"slices.sortFunc[go.shape.struct { net/http.x string }]": "other",
		"cmpbody": "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestBucketTopRejectsNonTable(t *testing.T) {
	if _, err := bucketTop("no profile here\n"); err == nil {
		t.Fatal("text without a pprof table was accepted")
	}
}

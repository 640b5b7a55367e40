package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// modulePackages are the repository's packages reported as their own
// <pkg>.self_share; every other module package falls into other.
var modulePackages = []string{
	"sim", "cpu", "core", "governor", "decode", "video", "netsim", "player", "abr",
	"energy", "experiments", "cohort", "stats", "campaign", "server", "fleet", "trace",
}

// runtimeBuckets are the Go runtime and library buckets, in report order.
var runtimeBuckets = []string{
	"runtime.gc", "runtime.malloc", "runtime.map", "runtime.sched", "net", "json", "math", "other",
}

// shareNames lists every <bucket>.self_share metric bucketTop reports.
func shareNames() []string {
	var out []string
	for _, p := range append(append([]string(nil), modulePackages...), runtimeBuckets...) {
		out = append(out, p+".self_share")
	}
	return out
}

// pprofTop renders a CPU profile with the toolchain's own pprof, keeping
// every node so the flat column sums to the whole profile.
func pprofTop(profile string) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-top",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return string(out), nil
}

// bucketTop sums the flat column of `go tool pprof -top` output by bucket
// and returns each bucket's share of the total as <bucket>.self_share.
// Every bucket is present, so the shares sum to 1 whenever the profile
// holds any sample.
func bucketTop(top string) (map[string]float64, error) {
	flat := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(strings.NewReader(top))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	header := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !header {
			header = len(fields) >= 5 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		d, err := parseFlat(fields[0])
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", sc.Text(), err)
		}
		name := strings.TrimSuffix(strings.Join(fields[5:], " "), " (inline)")
		flat[bucketOf(name)] += d
		total += d
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !header {
		return nil, fmt.Errorf("no pprof -top table in output")
	}
	out := map[string]float64{}
	for _, n := range shareNames() {
		out[n] = ratio(flat[strings.TrimSuffix(n, ".self_share")], total)
	}
	return out, nil
}

// parseFlat parses pprof's flat column ("1.20s", "350ms", "0").
func parseFlat(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	return d.Seconds(), nil
}

// packageOf returns the import path of a pprof function name
// ("videodvfs/internal/sim.(*Engine).RunUntil" → "videodvfs/internal/sim");
// "" for symbols without one, such as assembly helpers.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic shapes carry other packages' paths
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	return fn[:slash+1+dot]
}

// bucketOf assigns a profiled function to its self-time bucket.
func bucketOf(fn string) string {
	pkg := packageOf(fn)
	if rest, ok := strings.CutPrefix(pkg, "videodvfs/internal/"); ok {
		for _, p := range modulePackages {
			if rest == p {
				return p
			}
		}
		return "other"
	}
	switch {
	case pkg == "runtime":
		return runtimeBucket(strings.TrimPrefix(fn, "runtime."))
	case pkg == "internal/runtime/maps", fn == "aeshashbody":
		return "runtime.map"
	case pkg == "sync", pkg == "sync/atomic", pkg == "internal/sync":
		return "runtime.sched"
	case pkg == "encoding/json", pkg == "reflect":
		// reflect runs on behalf of encoding/json in this program.
		return "json"
	case pkg == "math", strings.HasPrefix(pkg, "math/"), pkg == "internal/chacha8rand":
		return "math"
	case pkg == "net", strings.HasPrefix(pkg, "net/"), pkg == "internal/poll", pkg == "syscall",
		strings.HasPrefix(pkg, "internal/syscall/"), pkg == "bufio", pkg == "mime",
		strings.HasPrefix(pkg, "vendor/golang.org/x/net/"):
		return "net"
	}
	return "other"
}

// runtimeBucket splits the runtime package by job; fn has its "runtime."
// prefix removed.
func runtimeBucket(fn string) string {
	has := func(subs ...string) bool {
		for _, s := range subs {
			if strings.Contains(fn, s) {
				return true
			}
		}
		return false
	}
	// Order matters: "mallocgc" names the allocator although it contains
	// "gc", and span methods serve both the allocator and the sweeper.
	switch {
	case strings.HasPrefix(fn, "map") || has("hash", "Hash"):
		return "runtime.map"
	case has("malloc", "newobject", "newarray", "makeslice", "growslice", "makemap", "nextFree",
		"mcache", "mcentral", "memclrNoHeapPointers", "heapSetType", "writeHeapBits",
		"rawstring", "rawbyteslice", "rawruneslice", "concatstring", "slicebytetostring",
		"stringtoslice", "publicationBarrier", "profilealloc"):
		return "runtime.malloc"
	case has("gc", "GC", "scan", "mark", "Mark", "sweep", "Sweep", "greyobject", "findObject",
		"wbBuf", "WriteBarrier", "bulkBarrier", "typePointers", "spanOf", "pageIndexOf",
		"scavenge", "pageAlloc", "madvise", "sysUnused", "heapBitsForAddr", "Assist"):
		return "runtime.gc"
	case has("mheap", "mspan", "acquirem", "releasem"):
		return "runtime.malloc"
	case has("netpoll", "epoll"):
		return "net"
	case has("schedule", "findRunnable", "park", "ready", "runq", "steal", "futex", "note",
		"mcall", "gosched", "usleep", "osyield", "procyield", "lock", "sema", "chan",
		"selectgo", "newproc", "goexit", "wakep", "startm", "stopm", "handoffp", "execute",
		"timer", "Timer", "nanotime", "sysmon", "retake", "syscall", "gopark", "goready",
		"casgstatus", "mPark", "resetspinning", "checkTimers", "runOneTimer"):
		return "runtime.sched"
	}
	return "other"
}

package main

import (
	"math"
	"testing"
	"time"
)

// probeWith is a stopped probe holding one chunk every speedPeriod from t0,
// with the given speeds.
func probeWith(t0 time.Time, fs ...float64) *speedProbe {
	p := &speedProbe{}
	for i, f := range fs {
		p.at = append(p.at, t0.Add(time.Duration(i)*speedPeriod))
		p.f = append(p.f, f)
	}
	return p
}

func TestSpeedFactor(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	p := probeWith(t0, 1, 1, 0.5, 0.5, 0.5, 0.5)
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	for _, tc := range []struct {
		name string
		a, b time.Time
		want float64
	}{
		{"a short op averages the chunks a period either side", at(40), at(41), 0.5},
		{"an op across the slowdown", at(10), at(20), (1 + 1 + 0.5 + 0.5) / 4},
		{"the whole series", at(0), at(50), 4.0 / 6},
		{"long after the last chunk", at(500), at(501), 0.5},
		{"long before the first chunk", at(-500), at(-499), 1},
	} {
		if got := p.factor(tc.a, tc.b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: factor %g, want %g", tc.name, got, tc.want)
		}
	}
	if got := (&speedProbe{}).factor(at(0), at(1)); got != 1 {
		t.Errorf("a probe without chunks scales by %g, want 1", got)
	}
}

// A failed op counts as infinitely slow: a change that fails more ops can
// only raise op_p50_ms, never lower it.
func TestOpLatenciesCountFailuresAsInfinite(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	p := probeWith(t0, 2, 2, 2, 2, 2)
	op := func(startMs, durMs int, ok bool) opSpan {
		s := t0.Add(time.Duration(startMs) * time.Millisecond)
		return opSpan{s, s.Add(time.Duration(durMs) * time.Millisecond), ok}
	}
	scaled, raw := opLatencies([]opSpan{op(0, 3, true), op(5, 1, false), op(10, 4, true)}, p)
	if raw[0] != 3 || scaled[0] != 6 || scaled[2] != 8 {
		t.Errorf("scaled %v raw %v: want raw 3 ms scaled by the host speed 2", scaled, raw)
	}
	if !math.IsInf(scaled[1], 1) || !math.IsInf(raw[1], 1) {
		t.Errorf("a failed op reads %g (raw %g), want +Inf", scaled[1], raw[1])
	}
	// Fast refusals do not make the median faster.
	allFast := []opSpan{op(0, 4, true), op(10, 4, true), op(20, 4, true)}
	refused := []opSpan{op(0, 4, true), op(10, 1, false), op(20, 1, false)}
	fast, _ := opLatencies(allFast, p)
	fewer, _ := opLatencies(refused, p)
	if median(fewer) < median(fast) {
		t.Errorf("median with refusals %g below the healthy %g", median(fewer), median(fast))
	}
}

// The reference kernel's cost must not depend on the program's heap: it
// allocates nothing, so it never does GC assist work.
func TestRefKernelAllocatesNothing(t *testing.T) {
	k := newRefKernel()
	if n := testing.AllocsPerRun(20, func() { k.run(refChunkIters) }); n != 0 {
		t.Fatalf("reference kernel allocates %g times per chunk", n)
	}
	if len(k.heap) != 64 {
		t.Fatalf("queue holds %d events after a chunk, want 64", len(k.heap))
	}
}

func TestSpeedProbeSamples(t *testing.T) {
	p := startSpeedProbe()
	time.Sleep(5 * speedPeriod)
	p.stop()
	p.stop() // stopping twice is harmless
	if n := p.chunks(); n < 2 || !(p.f[0] > 0) {
		t.Fatalf("probe took %d chunks, first speed %v", n, p.f)
	}
}

package player

import (
	"math"
	"testing"

	"videodvfs/internal/netsim"
	"videodvfs/internal/sim"
	"videodvfs/internal/video"
)

// oracleOver is shorthand for a perfect forecast over a bandwidth model.
func oracleOver(bw netsim.Bandwidth, lookahead sim.Time) Forecast {
	return netsim.Oracle{BW: bw, Lookahead: lookahead}
}

// TestPlanBurstFlatForecastDefersToLowWater pins the armed-but-equal
// property at the plan level: on a flat forecast nothing distinguishes the
// windows, so the plan must defer to the reactive low-water trigger — not
// start early, not start late.
func TestPlanBurstFlatForecastDefersToLowWater(t *testing.T) {
	fc := oracleOver(netsim.Constant{Bps: 8e6}, 20*sim.Second)
	now := 10 * sim.Second
	lowT := now + 5*sim.Second
	deadline := now + 30*sim.Second
	start := planBurst(fc, now, []float64{40e6}, 2, 20, lowT, deadline, false)
	if start != lowT {
		t.Fatalf("flat forecast: start %v, want the reactive trigger %v", start, lowT)
	}
	// Urgent (at/below low water): flat forecast starts immediately.
	if s := planBurst(fc, now, []float64{40e6}, 2, 20, now, deadline, true); s != now {
		t.Fatalf("flat urgent: start %v, want now %v", s, now)
	}
}

// TestPlanBurstRacesBeforeFade pins the race-into-the-window rule: when
// the burst fits the current good window but any later start straddles a
// predicted fade, the plan starts now — before the reactive trigger.
func TestPlanBurstRacesBeforeFade(t *testing.T) {
	// Good 16 Mbps until t=14 s, then a long fade.
	bw := netsim.Steps{Trace: []netsim.Step{
		{Start: 0, Bps: 16e6},
		{Start: 14 * sim.Second, Bps: 0.2e6},
	}}
	fc := oracleOver(bw, 30*sim.Second)
	now := 10 * sim.Second
	lowT := now + 6*sim.Second // reactive would wait until inside the fade
	deadline := now + 40*sim.Second
	// 48 Mbit at 16 Mbps = 3 s: fits [10, 14) if started now; started at
	// the boundary or at lowT it crawls at 0.2 Mbps.
	start := planBurst(fc, now, []float64{48e6}, 2, 20, lowT, deadline, false)
	if start != now {
		t.Fatalf("burst fits the closing window: start %v, want now %v", start, now)
	}
}

// TestPlanBurstDefersThroughFade pins the ride-out rule: fetching straight
// into a fade loses to waiting for a predicted recovery the buffer can
// ride to, even at/below low water.
func TestPlanBurstDefersThroughFade(t *testing.T) {
	bw := netsim.Steps{Trace: []netsim.Step{
		{Start: 0, Bps: 0.2e6},
		{Start: 16 * sim.Second, Bps: 16e6},
	}}
	fc := oracleOver(bw, 30*sim.Second)
	now := 10 * sim.Second
	deadline := now + 20*sim.Second // recovery at +6 s, buffer rides it out
	start := planBurst(fc, now, []float64{48e6}, 2, 20, now, deadline, true)
	if start != 16*sim.Second {
		t.Fatalf("fade with rideable recovery: start %v, want the recovery boundary %v",
			start, 16*sim.Second)
	}
	// If the deadline cannot wait for the recovery, start now (reactive
	// degrade): crawling bits beats provably missing the deadline.
	if s := planBurst(fc, now, []float64{48e6}, 2, 20, now, now+4*sim.Second, true); s != now {
		t.Fatalf("doomed deadline: start %v, want now %v", s, now)
	}
}

// TestPlanBurstZeroBits pins the trivial-burst case.
func TestPlanBurstZeroBits(t *testing.T) {
	fc := oracleOver(netsim.Constant{Bps: 8e6}, 10*sim.Second)
	if d := burstDur(fc, 0, nil, 2, sim.Forever); d != 0 {
		t.Fatalf("burstDur(0 bits) = %v", d)
	}
	if d := burstDur(fc, 0, []float64{8e6}, 2, 10*sim.Second); d != 1 {
		t.Fatalf("burstDur(8 Mbit @ 8 Mbps) = %v, want 1 s", d)
	}
}

// TestPredictiveEqualOnFlatLink pins the tentpole equality: a session with
// a perfect forecast over a constant link schedules byte-identically to
// the reactive low-water path — same metrics, same fetch count.
func TestPredictiveEqualOnFlatLink(t *testing.T) {
	const bps = 6e6
	run := func(fc Forecast) (Metrics, int) {
		eng, core := singleOPPCore(t, 1e9)
		stream := flatStream(30, 60, 1e6, 1e6)
		cfg := DefaultConfig()
		cfg.LowWaterSec = 10
		cfg.Forecast = fc
		fet := &fakeFetcher{eng: eng, bps: bps}
		s, err := NewSession(eng, core, fet, []*video.Stream{stream}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		eng.RunUntil(10 * sim.Minute)
		if s.Err() != nil {
			t.Fatal(s.Err())
		}
		return s.Metrics(), fet.fetches
	}
	reactive, rFetches := run(nil)
	predictive, pFetches := run(oracleOver(netsim.Constant{Bps: bps}, 20*sim.Second))
	if reactive != predictive {
		t.Fatalf("metrics diverged:\nreactive   %+v\npredictive %+v", reactive, predictive)
	}
	if rFetches != pFetches {
		t.Fatalf("fetch counts diverged: reactive %d, predictive %d", rFetches, pFetches)
	}
}

// fadingFetcher delivers fast until fadeAt, then slow: the real link
// fades while a wrong forecast still promises a recovery.
type fadingFetcher struct {
	*fakeFetcher
	fadeAt sim.Time
	slow   float64
}

func (f *fadingFetcher) Fetch(bits float64, onDone func(now sim.Time)) error {
	if f.eng.Now() >= f.fadeAt {
		f.bps = f.slow
	}
	return f.fakeFetcher.Fetch(bits, onDone)
}

// TestPredictiveStallRearms pins the deferral safety net: a forecast that
// defers toward a predicted recovery rides the buffer down; when the
// prediction is wrong (the real link fades instead), the session must
// stall, keep fetching against the real link, and complete — never
// deadlock with the plan still saying "later". The planner's own doomed
// fallback (start when no candidate meets the deadline) plus the stall
// re-arm in tick() are what this exercises.
func TestPredictiveStallRearms(t *testing.T) {
	eng, core := singleOPPCore(t, 1e9)
	stream := flatStream(30, 20, 1e6, 1e6)
	cfg := DefaultConfig()
	cfg.StartupSec = 2
	cfg.MaxBufferSec = 10
	cfg.LowWaterSec = 5
	// The forecast believes the link is dead until t=9 s and infinitely
	// fast after. The plan defers toward that recovery from the moment
	// draining starts (the recovery is predicted rideable); the real link
	// fades at t=5 s to 0.2 Mbps, so the fetch the planner finally
	// launches cannot land before the buffer runs dry.
	cfg.Forecast = oracleOver(netsim.Steps{Trace: []netsim.Step{
		{Start: 0, Bps: 0},
		{Start: 9 * sim.Second, Bps: 1e12},
	}}, 30*sim.Second)
	fet := &fadingFetcher{
		fakeFetcher: &fakeFetcher{eng: eng, bps: 5e6},
		fadeAt:      5 * sim.Second,
		slow:        0.2e6,
	}
	s, err := NewSession(eng, core, fet, []*video.Stream{stream}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	eng.RunUntil(10 * sim.Minute)
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	m := s.Metrics()
	if !m.Completed {
		t.Fatalf("session deadlocked after deferral: %+v", m)
	}
	if m.RebufferCount == 0 {
		t.Fatalf("expected the deferral to ride the buffer dry: %+v", m)
	}
}

// TestConfigForecastValidation pins the forecast config contract: a
// forecast without burst hysteresis (or with a degenerate horizon) is a
// config error, not a silent no-op.
func TestConfigForecastValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Forecast = oracleOver(netsim.Constant{Bps: 1e6}, 10*sim.Second)
	cfg.LowWaterSec = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("forecast without low-water hysteresis accepted")
	}
	cfg.LowWaterSec = 5
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, h := range []sim.Time{0, -sim.Second, sim.Forever, sim.Time(math.NaN())} {
		cfg.Forecast = oracleOver(netsim.Constant{Bps: 1e6}, h)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("forecast horizon %v accepted", h)
		}
	}
}

// FuzzForecastSchedule asserts the scheduler's safety envelope over
// random seeded bandwidth models, lookaheads, and decision states: the
// planned start is never in the past, never beyond the forecast horizon,
// and never non-finite — for perfect and noisy forecasts alike, including
// models with outages and sub-frame pieces.
func FuzzForecastSchedule(f *testing.F) {
	f.Add(int64(1), 0.0, int64(20_000), 5.0, 30.0, 10.0, 48e6, 20.0, 20.0, false)
	f.Add(int64(7), 0.3, int64(5_000), 0.0, 2.0, 0.5, 8e6, 4.0, 1.5, true)
	f.Add(int64(-3), 2.0, int64(600_000), 100.0, 1.0, 0.0, 1e9, 0.1, 0.0, false)
	f.Add(int64(42), 0.05, int64(1), 0.001, 0.5, 0.25, 1e3, 1e6, 1e6, true)
	f.Fuzz(func(t *testing.T, seed int64, relErr float64, lookaheadMs int64,
		nowS, bufS, lowS, bits, extraS, refillS float64, urgent bool) {
		rng := sim.NewRNG(seed)
		n := 1 + rng.Intn(8)
		steps := make([]netsim.Step, n)
		var at sim.Time
		for i := range steps {
			var bps float64
			if rng.Uniform(0, 1) > 0.2 { // 20% outage pieces
				bps = rng.Uniform(1e3, 40e6)
			}
			steps[i] = netsim.Step{Start: at, Bps: bps}
			at += sim.Time(rng.Uniform(0.05, 5))
		}
		bw := netsim.Steps{Trace: steps}
		lookahead := sim.Time(lookaheadMs) * sim.Millisecond
		if !(lookahead > 0) || lookahead > 600*sim.Second {
			lookahead = 20 * sim.Second
		}
		var fc Forecast = netsim.Oracle{BW: bw, Lookahead: lookahead}
		if relErr == relErr && relErr > 0 && relErr < 10 {
			noisy, err := netsim.NewNoisy(fc.(netsim.Oracle), relErr, seed)
			if err != nil {
				t.Fatal(err)
			}
			fc = noisy
		}
		clamp := func(v, lo, hi float64) float64 {
			if !(v >= lo) {
				return lo
			}
			if v > hi {
				return hi
			}
			return v
		}
		now := sim.Time(clamp(nowS, 0, 1e6))
		buf := clamp(bufS, 0, 600)
		low := clamp(lowS, 0, buf)
		lowT := now + sim.Time(buf-low)
		deadline := now + sim.Time(buf) + sim.Time(clamp(extraS, 0, 600))
		if !(bits >= 0) || bits > 1e15 {
			bits = 1e6
		}

		start := planBurst(fc, now, []float64{bits / 2, bits / 2}, clamp(extraS, 0.1, 30), clamp(refillS, 0.5, 120), lowT, deadline, urgent)
		if math.IsNaN(float64(start)) || math.IsInf(float64(start), 0) {
			t.Fatalf("planBurst returned non-finite start %v", start)
		}
		if start < now {
			t.Fatalf("planBurst proposed a start in the past: %v < now %v", start, now)
		}
		if start > now+fc.Horizon() {
			t.Fatalf("planBurst proposed a start beyond the horizon: %v > %v",
				start, now+fc.Horizon())
		}
	})
}

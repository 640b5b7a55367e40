package experiments

import (
	"errors"
	"math"
	"testing"
	"time"

	"videodvfs/internal/netsim"
	"videodvfs/internal/sim"
	"videodvfs/internal/video"
)

func mustRun(t *testing.T, cfg RunConfig) RunResult {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunDeterministic(t *testing.T) {
	a := mustRun(t, DefaultRunConfig())
	b := mustRun(t, DefaultRunConfig())
	if a.CPUJ != b.CPUJ || a.RadioJ != b.RadioJ || a.QoE != b.QoE {
		t.Fatalf("identical configs diverged: %+v vs %+v", a, b)
	}
	c := func() RunResult {
		cfg := DefaultRunConfig()
		cfg.Seed = 99
		return mustRun(t, cfg)
	}()
	if a.CPUJ == c.CPUJ {
		t.Fatal("different seeds produced identical CPU energy")
	}
}

func TestRunCompletesAndAccounts(t *testing.T) {
	res := mustRun(t, DefaultRunConfig())
	if !res.QoE.Completed {
		t.Fatal("base case did not complete")
	}
	if res.QoE.DisplayedFrames+res.QoE.DroppedFrames != res.QoE.TotalFrames {
		t.Fatalf("frame accounting broken: %+v", res.QoE)
	}
	if res.CPUJ <= 0 || res.RadioJ <= 0 || res.DisplayJ <= 0 {
		t.Fatalf("energy components missing: %+v", res)
	}
	var resid sim.Time
	for _, d := range res.FreqResidency {
		resid += d
	}
	if math.Abs(float64(resid-res.SimEnd)) > 1e-6*float64(res.SimEnd) {
		t.Fatalf("frequency residency %v does not cover the run %v", resid, res.SimEnd)
	}
}

// TestHeadlineShape asserts the paper's central claims on the base case.
func TestHeadlineShape(t *testing.T) {
	results := make(map[GovernorID]RunResult)
	for _, gov := range []GovernorID{GovPerformance, GovPowersave, GovOndemand, GovInteractive, GovEnergyAware, GovOracle} {
		cfg := DefaultRunConfig()
		cfg.Governor = gov
		results[gov] = mustRun(t, cfg)
	}
	ea, od, perf, ps, oracle := results["energyaware"], results["ondemand"], results["performance"], results["powersave"], results["oracle"]

	if ea.CPUJ >= od.CPUJ*0.85 {
		t.Errorf("energy-aware (%.1f J) should save ≥15%% vs ondemand (%.1f J)", ea.CPUJ, od.CPUJ)
	}
	if od.CPUJ >= perf.CPUJ {
		t.Errorf("ondemand (%.1f J) should undercut performance (%.1f J)", od.CPUJ, perf.CPUJ)
	}
	if ea.QoE.DroppedFrames != perf.QoE.DroppedFrames {
		t.Errorf("energy-aware drops (%d) must match performance (%d)", ea.QoE.DroppedFrames, perf.QoE.DroppedFrames)
	}
	if ps.QoE.DropRate() < 0.5 {
		t.Errorf("powersave at 720p should collapse, drop rate %.2f", ps.QoE.DropRate())
	}
	if oracle.CPUJ > ea.CPUJ*1.001 {
		t.Errorf("oracle (%.1f J) must lower-bound energy-aware (%.1f J)", oracle.CPUJ, ea.CPUJ)
	}
	if ea.CPUJ > oracle.CPUJ*1.25 {
		t.Errorf("energy-aware (%.1f J) should be within 25%% of oracle (%.1f J)", ea.CPUJ, oracle.CPUJ)
	}
	// QoE parity on startup.
	if ea.QoE.StartupDelay > perf.QoE.StartupDelay+200*sim.Millisecond {
		t.Errorf("energy-aware startup %v should track performance %v", ea.QoE.StartupDelay, perf.QoE.StartupDelay)
	}
}

func TestRunMeanFrequencyOrdering(t *testing.T) {
	freqs := make(map[GovernorID]float64)
	for _, gov := range []GovernorID{GovPerformance, GovPowersave, GovEnergyAware} {
		cfg := DefaultRunConfig()
		cfg.Governor = gov
		freqs[gov] = mustRun(t, cfg).MeanFreqGHz
	}
	if !(freqs["powersave"] < freqs["energyaware"] && freqs["energyaware"] < freqs["performance"]) {
		t.Fatalf("mean frequency ordering wrong: %v", freqs)
	}
}

func TestRunPredictorStatsPresentOnlyForEnergyAware(t *testing.T) {
	cfg := DefaultRunConfig()
	res := mustRun(t, cfg)
	if res.Pred == nil || res.Pred.N == 0 {
		t.Fatal("energy-aware run should report predictor stats")
	}
	if res.Pred.UnderRate() > 0.2 {
		t.Fatalf("predictor under-rate %.2f too high", res.Pred.UnderRate())
	}
	cfg.Governor = "ondemand"
	if mustRun(t, cfg).Pred != nil {
		t.Fatal("baseline run should not report predictor stats")
	}
}

func TestRunFastDormancySavesRadioEnergy(t *testing.T) {
	base := DefaultRunConfig()
	base.Duration = 120 * sim.Second
	base.LowWaterSec = 10
	rrcStd := netsim.DefaultUMTS()
	base.RRC = &rrcStd
	std := mustRun(t, base)

	fd := base
	rrcFD := netsim.DefaultUMTS()
	rrcFD.FastDormancy = true
	fd.RRC = &rrcFD
	fast := mustRun(t, fd)

	if fast.RadioJ >= std.RadioJ {
		t.Fatalf("fast dormancy radio %.1f J should undercut tails %.1f J", fast.RadioJ, std.RadioJ)
	}
	if fast.RadioResidency[netsim.StateIdle] <= std.RadioResidency[netsim.StateIdle] {
		t.Fatal("fast dormancy should increase IDLE residency")
	}
}

func TestRunBurstPrefetchOpensRadioGaps(t *testing.T) {
	trickle := DefaultRunConfig()
	trickle.Duration = 120 * sim.Second
	rrc := netsim.DefaultUMTS()
	trickle.RRC = &rrc
	tr := mustRun(t, trickle)

	burst := trickle
	burst.LowWaterSec = 10
	br := mustRun(t, burst)

	if br.RadioResidency[netsim.StateDCH] >= tr.RadioResidency[netsim.StateDCH] {
		t.Fatalf("burst prefetch DCH %.1f s should undercut trickle %.1f s",
			br.RadioResidency[netsim.StateDCH].Seconds(), tr.RadioResidency[netsim.StateDCH].Seconds())
	}
}

func TestRunABRAndNetworks(t *testing.T) {
	for _, net := range NetKinds() {
		cfg := DefaultRunConfig()
		cfg.Net = net
		cfg.ABR = "bba"
		cfg.Duration = 30 * sim.Second
		if net == NetTrace {
			// The trace backend needs sample data; the post-recording
			// tail (last rate holds) carries the run past 1 s of trace.
			cfg.BWTrace = &netsim.Trace{Samples: []netsim.TraceSample{
				{Start: 0, End: 0.5, Bytes: 500_000, Fetch: 0},
				{Start: 0.7, End: 1.0, Bytes: 200_000, Fetch: 1},
			}}
		}
		res := mustRun(t, cfg)
		if res.QoE.TotalFrames == 0 {
			t.Fatalf("%s: no frames", net)
		}
		if res.QoE.MeanRungBps <= 0 && res.QoE.Completed {
			t.Fatalf("%s: no bitrate recorded", net)
		}
	}
}

func TestRunValidation(t *testing.T) {
	bad := DefaultRunConfig()
	bad.Duration = 0
	if _, err := Run(bad); err == nil {
		t.Error("want error for zero duration")
	}
	bad = DefaultRunConfig()
	bad.Governor = "warpdrive"
	if _, err := Run(bad); err == nil {
		t.Error("want error for unknown governor")
	}
	bad = DefaultRunConfig()
	bad.Net = "carrier-pigeon"
	if _, err := Run(bad); err == nil {
		t.Error("want error for unknown network")
	}
	bad = DefaultRunConfig()
	bad.ABR = "mpc"
	if _, err := Run(bad); err == nil {
		t.Error("want error for unknown ABR")
	}
}

// Content past video.MaxDuration is refused up front: a huge finite
// duration generated frames and bandwidth steps until memory ran out. The
// cap itself is admitted, and so is its bandwidth trace, which a run draws
// over four content lengths, within netsim's own cap.
func TestRunConfigRefusesContentPastCap(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.Duration = video.MaxDuration + sim.Second
	if err := cfg.Validate(); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("duration %v: err = %v, want ErrInvalidConfig", cfg.Duration, err)
	}
	cfg.Duration = video.MaxDuration
	if err := cfg.Validate(); err != nil {
		t.Fatalf("duration at the cap: %v", err)
	}
	for _, net := range []NetKind{NetLTE, NetUMTS} {
		cfg.Net = net
		if _, _, err := buildBandwidth(cfg); err != nil {
			t.Errorf("%s bandwidth for content at the cap: %v", net, err)
		}
	}
}

// The frame count has its own cap, video.MaxFrames: 1000 fps over 24 h
// passed both the fps and the duration checks, 86 M frames of stream. A
// count one frame past the cap is refused, and fast; the cap itself is
// admitted.
func TestRunConfigRefusesFramesPastCap(t *testing.T) {
	cfg := DefaultRunConfig()
	// 81,000 s at 32 fps is exactly video.MaxFrames.
	for _, tc := range []struct {
		fps float64
		dur sim.Time
	}{
		{1000, video.MaxDuration},
		{32, sim.Time(81000+1.0/32) * sim.Second},
	} {
		cfg.FPS, cfg.Duration = tc.fps, tc.dur
		start := time.Now()
		if err := cfg.Validate(); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%v at %v fps: err = %v, want ErrInvalidConfig", tc.dur, tc.fps, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%v at %v fps: refused after %v", tc.dur, tc.fps, d)
		}
	}
	cfg.FPS, cfg.Duration = 32, 81000*sim.Second
	if err := cfg.Validate(); err != nil {
		t.Fatalf("%d frames, at the cap: %v", video.MaxFrames, err)
	}
}

func TestRunHorizonExceeded(t *testing.T) {
	cfg := DefaultRunConfig()
	// The base case needs ≈61 virtual seconds; a 10 s horizon cuts the
	// session off mid-stream.
	cfg.Horizon = 10 * sim.Second
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("want ErrHorizonExceeded for a 10 s horizon on a 60 s session")
	}
	if !errors.Is(err, ErrHorizonExceeded) {
		t.Fatalf("want ErrHorizonExceeded, got %v", err)
	}
	// The message names the progress at cutoff so starved sweeps are
	// debuggable from logs alone.
	if !containsStr(err.Error(), "frames") {
		t.Fatalf("horizon error should report frame progress: %v", err)
	}

	// A generous explicit horizon behaves exactly like the default.
	cfg.Horizon = 10 * sim.Minute
	res := mustRun(t, cfg)
	if !res.QoE.Completed {
		t.Fatal("session should complete under a generous horizon")
	}
	if res.SimEnd >= cfg.Horizon {
		t.Fatalf("completed run should stop before the horizon, ended at %v", res.SimEnd)
	}
}

func TestRunDefaultsFillZeroFields(t *testing.T) {
	cfg := RunConfig{Governor: "ondemand", Duration: 10 * sim.Second, Net: NetWiFi, Background: false}
	res := mustRun(t, cfg)
	if !res.QoE.Completed {
		t.Fatal("defaults-filled run did not complete")
	}
}

func TestAllExperimentsBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment grid is a long test")
	}
	for _, id := range IDs() {
		b, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := b()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s: empty table", id)
		}
		if tab.ID != id {
			t.Fatalf("%s: table reports ID %s", id, tab.ID)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Fatalf("%s: row width %d != header %d", id, len(row), len(tab.Header))
			}
		}
		if tab.Format() == "" {
			t.Fatalf("%s: empty formatting", id)
		}
	}
}

func TestGetUnknownExperiment(t *testing.T) {
	if _, err := Get("f99"); err == nil {
		t.Fatal("want error for unknown experiment")
	}
}

func TestIDsStableOrder(t *testing.T) {
	ids := IDs()
	if len(ids) != 30 {
		t.Fatalf("got %d experiments, want 30", len(ids))
	}
	if ids[0] != "t1" || ids[len(ids)-1] != "t9" {
		t.Fatalf("order wrong: %v", ids)
	}
}

func TestTableFormatAligned(t *testing.T) {
	tab := Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "long_column"},
		Rows:   [][]string{{"1", "2"}, {"333333", "4"}},
		Notes:  "note text",
	}
	out := tab.Format()
	if out == "" {
		t.Fatal("empty output")
	}
	for _, want := range []string{"== X: demo ==", "long_column", "note: note text"} {
		if !containsStr(out, want) {
			t.Fatalf("formatted table missing %q:\n%s", want, out)
		}
	}
}

func containsStr(haystack, needle string) bool {
	return len(haystack) >= len(needle) && indexStr(haystack, needle) >= 0
}

func indexStr(haystack, needle string) int {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return i
		}
	}
	return -1
}

func TestHeadlineGridShape(t *testing.T) {
	if testing.Short() {
		t.Skip("grid is a long test")
	}
	eg, dg, err := runGrid([]GovernorID{GovEnergyAware}, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	e, d := eg["energyaware"], dg["energyaware"]
	// Energy must rise with resolution; drops ≈ 0 everywhere.
	order := []string{"360p", "480p", "720p", "1080p"}
	for i := 1; i < len(order); i++ {
		if e[order[i]] <= e[order[i-1]] {
			t.Fatalf("energy not increasing with resolution: %v", e)
		}
	}
	for _, res := range order {
		if d[res] > 0.01 {
			t.Fatalf("energy-aware drop rate %.3f at %s", d[res], res)
		}
	}
	_ = video.Resolutions()
}

func TestTableRenderFormats(t *testing.T) {
	tab := Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "with,comma"}, {"q\"uote", "3"}},
		Notes:  "n",
	}
	md, err := tab.Render("markdown")
	if err != nil || !containsStr(md, "| a | b |") || !containsStr(md, "> n") {
		t.Fatalf("markdown render broken: %v\n%s", err, md)
	}
	csv, err := tab.Render("csv")
	if err != nil {
		t.Fatal(err)
	}
	if !containsStr(csv, `"with,comma"`) || !containsStr(csv, `"q""uote"`) {
		t.Fatalf("csv quoting broken:\n%s", csv)
	}
	if _, err := tab.Render("yaml"); err == nil {
		t.Fatal("want error for unknown format")
	}
	text, err := tab.Render("")
	if err != nil || text != tab.Format() {
		t.Fatal("default render should be text")
	}
}

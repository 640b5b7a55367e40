package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"videodvfs/internal/cpu"
	"videodvfs/internal/netsim"
	"videodvfs/internal/sim"
	"videodvfs/internal/trace"
	"videodvfs/internal/video"
)

// runFresh executes cfg on a brand-new arena — the reference simulator.
func runFresh(t *testing.T, cfg RunConfig) RunResult {
	t.Helper()
	var res RunResult
	if err := NewSession().RunInto(cfg, &res); err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	return res
}

// resetConfigs is the cross-config recycling gauntlet: consecutive entries
// differ in governor, network, device, codec, C-states, thermal model,
// latency mode, ABR, frame rate, and RRC override, so a single arena must
// rewind every component across maximally dissimilar runs.
func resetConfigs() []RunConfig {
	base := func() RunConfig {
		cfg := DefaultRunConfig()
		cfg.Duration = 8 * sim.Second
		cfg.Strict = true
		return cfg
	}
	fd := netsim.DefaultUMTS()
	fd.FastDormancy = true
	thermal := cpu.DefaultThermalConfig()

	cfgs := make([]RunConfig, 0, 12)

	cfg := base()
	cfgs = append(cfgs, cfg) // energyaware / const8 / flagship

	cfg = base()
	cfg.Governor = GovOndemand
	cfg.Net = NetLTE
	cfg.Device = cpu.DeviceMidrange()
	cfg.Seed = 7
	cfgs = append(cfgs, cfg)

	cfg = base()
	cfg.Governor = GovOracle
	cfg.CStates = true
	cfg.Codec = "hevc"
	cfgs = append(cfgs, cfg)

	cfg = base()
	cfg.Governor = GovPerformance
	cfg.Net = NetUMTS
	cfg.RRC = &fd
	cfg.Rung = video.R360p
	cfg.Duration = 6 * sim.Second
	cfgs = append(cfgs, cfg)

	cfg = base()
	cfg.ABR = ABRRate
	cfg.Net = NetLTE
	cfg.Title = video.TitleNews
	cfg.Seed = 3
	cfgs = append(cfgs, cfg)

	cfg = base()
	cfg.LowLatency = true
	cfg.FPS = 60
	cfg.Device = cpu.DeviceEfficient()
	cfg.Rung = video.R480p
	cfgs = append(cfgs, cfg)

	cfg = base()
	cfg.Thermal = &thermal
	cfg.Governor = GovSchedutil
	cfg.Rung = video.R1080p
	cfg.Net = NetWiFi
	cfgs = append(cfgs, cfg)

	cfg = base()
	cfg.ABR = ABRBBA
	cfg.Net = NetUMTS
	cfg.SegmentDur = 4 * sim.Second
	cfg.LowWaterSec = 3
	cfg.Background = false
	cfgs = append(cfgs, cfg)

	cfg = base()
	cfg.Governor = GovConservative
	cfg.DecodedQueueCap = 4
	cfg.CStates = true
	cfg.Seed = 11
	cfgs = append(cfgs, cfg)

	// Close the loop on the default shape so the arena ends where it
	// began after visiting every variant.
	cfgs = append(cfgs, base())
	return cfgs
}

// TestSessionResetDifferential is the differential battery's core: one
// arena recycled across maximally dissimilar configs must reproduce, for
// every config, the exact result of a fresh simulator — reflect.DeepEqual
// on the full RunResult and byte-identical JSONL traces — with the
// invariant checker armed on every run (Strict in each config).
func TestSessionResetDifferential(t *testing.T) {
	arena := NewSession()
	for i, cfg := range resetConfigs() {
		var freshBuf, recycledBuf bytes.Buffer

		fcfg := cfg
		fsink := trace.NewJSONL(&freshBuf)
		fcfg.Tracer = fsink
		want := runFresh(t, fcfg)
		if err := fsink.Close(); err != nil {
			t.Fatal(err)
		}

		rcfg := cfg
		rsink := trace.NewJSONL(&recycledBuf)
		rcfg.Tracer = rsink
		var got RunResult
		if err := arena.RunInto(rcfg, &got); err != nil {
			t.Fatalf("config %d: recycled run: %v", i, err)
		}
		if err := rsink.Close(); err != nil {
			t.Fatal(err)
		}

		if !reflect.DeepEqual(want, got) {
			t.Errorf("config %d (%s/%s): recycled result diverges from fresh\nfresh:    %+v\nrecycled: %+v",
				i, cfg.Governor, cfg.Net, want, got)
		}
		if !bytes.Equal(freshBuf.Bytes(), recycledBuf.Bytes()) {
			t.Errorf("config %d (%s/%s): recycled JSONL trace diverges from fresh (%d vs %d bytes)",
				i, cfg.Governor, cfg.Net, freshBuf.Len(), recycledBuf.Len())
		}
	}
}

// TestViewerMatchesSessionAcrossResetConfigs pins the cohort path to the
// Run path across the whole gauntlet, with invariants armed (Strict in
// each config): a Viewer on its own fresh engine — started at t=0,
// finished in OnDone, run to its Deadline — must reproduce a fresh
// Session's result under reflect.DeepEqual. Thermal, C-states, fast
// dormancy, ladder ABRs, low-latency, background-off and segment-duration
// variants all ride through the viewer's wiring here.
func TestViewerMatchesSessionAcrossResetConfigs(t *testing.T) {
	for i, cfg := range resetConfigs() {
		want := runFresh(t, cfg)

		eng := sim.NewEngine()
		var (
			v        *Viewer
			got      RunResult
			finished bool
			ferr     error
		)
		v, err := NewViewer(eng, cfg, ViewerOptions{OnDone: func() {
			finished = true
			ferr = v.Finish(&got)
		}})
		if err != nil {
			t.Fatalf("config %d: NewViewer: %v", i, err)
		}
		v.Start()
		eng.RunUntil(v.Deadline())
		if !finished {
			t.Fatalf("config %d (%s/%s): viewer never finished by its deadline", i, cfg.Governor, cfg.Net)
		}
		if ferr != nil {
			t.Fatalf("config %d (%s/%s): viewer Finish: %v", i, cfg.Governor, cfg.Net, ferr)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("config %d (%s/%s): viewer result diverges from Session\nsession: %+v\nviewer:  %+v",
				i, cfg.Governor, cfg.Net, want, got)
		}
	}
}

// TestViewerWithoutErrorLog plays one config on two viewers, one built
// with NoErrorLog as a cohort builds it when no OnViewer reads results:
// its governor keeps no per-frame error log at all, its result counts the
// same predictions, and once the logging viewer's Pred.RelErr is cleared
// the two results are DeepEqual.
func TestViewerWithoutErrorLog(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.ABR, cfg.Net, cfg.Duration = ABRBBA, NetLTE, 20*sim.Second
	cfg.Strict = true
	play := func(opts ViewerOptions) (RunResult, *Viewer) {
		t.Helper()
		eng := sim.NewEngine()
		var (
			v    *Viewer
			res  RunResult
			ferr error
			done bool
		)
		opts.OnDone = func() {
			done = true
			ferr = v.Finish(&res)
		}
		v, err := NewViewer(eng, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		v.Start()
		eng.RunUntil(v.Deadline())
		if !done || ferr != nil {
			t.Fatalf("viewer finished %v: %v", done, ferr)
		}
		return res, v
	}
	logged, lv := play(ViewerOptions{})
	bare, bv := play(ViewerOptions{NoErrorLog: true})
	if c := cap(bv.ea.PredStats().RelErr); c != 0 {
		t.Fatalf("a viewer without an error log holds a %d-entry log", c)
	}
	if c := cap(lv.ea.PredStats().RelErr); c < logged.QoE.TotalFrames {
		t.Fatalf("the logging viewer sized its log for %d of %d frames", c, logged.QoE.TotalFrames)
	}
	if bare.Pred == nil || bare.Pred.N == 0 || bare.Pred.RelErr != nil {
		t.Fatalf("a viewer without an error log reports %+v", bare.Pred)
	}
	if logged.Pred == nil || len(logged.Pred.RelErr) != logged.Pred.N {
		t.Fatalf("the logging viewer scored %d frames and logged %d", logged.Pred.N, len(logged.Pred.RelErr))
	}
	logged.Pred.RelErr = nil
	if !reflect.DeepEqual(logged, bare) {
		t.Fatalf("results differ beyond the log\nlogged: %+v\nbare:   %+v", logged, bare)
	}
}

// TestSessionResetSameConfigRepeat pins the tightest reuse contract: the
// same config rerun on one arena is bit-identical run after run (the
// dvfsd/campaign steady state), including the recycled-result-struct path.
func TestSessionResetSameConfigRepeat(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.Duration = 8 * sim.Second
	cfg.Strict = true
	want := runFresh(t, cfg)

	arena := NewSession()
	var got RunResult
	for i := 0; i < 3; i++ {
		if err := arena.RunInto(cfg, &got); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("iteration %d diverges from fresh\nfresh: %+v\ngot:   %+v", i, want, got)
		}
	}
}

// TestSessionResetAfterError checks that an arena poisoned by a failed run
// (horizon cut mid-stream) recycles cleanly: the next run on the same
// arena matches a fresh simulator exactly.
func TestSessionResetAfterError(t *testing.T) {
	arena := NewSession()

	bad := DefaultRunConfig()
	bad.Duration = 8 * sim.Second
	bad.Horizon = 2 * sim.Second // guaranteed mid-run cut
	var res RunResult
	if err := arena.RunInto(bad, &res); err == nil {
		t.Fatal("horizon-cut run unexpectedly succeeded")
	}

	good := DefaultRunConfig()
	good.Duration = 8 * sim.Second
	good.Strict = true
	want := runFresh(t, good)
	var got RunResult
	if err := arena.RunInto(good, &got); err != nil {
		t.Fatalf("run after failed run: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("arena poisoned by failed run\nfresh: %+v\ngot:   %+v", want, got)
	}
}

// setSessionReuse toggles arena recycling in Run and returns the previous
// setting: off, every Run constructs a fresh simulator, the reference the
// differential tests compare recycled runs against.
func setSessionReuse(on bool) (prev bool) {
	return !sessionReuseOff.Swap(!on)
}

// TestDifferentialRegistry runs the entire 30-entry experiment registry
// twice — once with arena recycling disabled (every Run constructs a fresh
// simulator) and once through the default recycled pool — and requires
// byte-identical formatted tables. This is the broadest net: every device,
// governor, network, codec, thermal, idle, SMP, and cluster configuration
// the evaluation exercises must survive session recycling, with the
// invariant checker armed process-wide.
func TestDifferentialRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry differential is not a -short test")
	}
	defer SetStrictDefault(SetStrictDefault(true))

	for _, id := range IDs() {
		builder, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}

		prev := setSessionReuse(false)
		freshTab, freshErr := builder()
		setSessionReuse(prev)
		if freshErr != nil {
			t.Fatalf("%s (fresh sessions): %v", id, freshErr)
		}

		recycledTab, err := builder()
		if err != nil {
			t.Fatalf("%s (recycled sessions): %v", id, err)
		}

		if fresh, recycled := freshTab.Format(), recycledTab.Format(); fresh != recycled {
			t.Errorf("%s: recycled-session table diverges from fresh\n--- fresh ---\n%s\n--- recycled ---\n%s",
				id, fresh, recycled)
		}
	}
}

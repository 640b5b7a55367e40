package cohort

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"videodvfs/internal/campaign"
	"videodvfs/internal/experiments"
	"videodvfs/internal/sim"
	"videodvfs/internal/video"
)

var update = flag.Bool("update", false, "rewrite the golden rollup stream")

// shortBase is a quick per-viewer config for cohort tests: the
// evaluation's base case cut to 10 s of content.
func shortBase() experiments.RunConfig {
	cfg := experiments.DefaultRunConfig()
	cfg.Duration = 10 * sim.Second
	return cfg
}

// An N=1 cohort must reproduce a standalone Run bit for bit: the cohort
// viewer and Run's Session are wired by the same Viewer.reset and
// collected by the same collect path, so DeepEqual — not tolerances — is
// the bar. Invariants ride both sides (Strict).
func TestSingleViewerEquivalentToRun(t *testing.T) {
	base := shortBase()
	base.Strict = true

	refCfg := base
	// The cohort splits each viewer's background seed from the cohort
	// seed by index; viewer 0's split is reproducible on the Run side.
	refCfg.BGSeed = sim.ChildSeedN(refCfg.Seed, "cohort/bgload", 0)
	ref, err := experiments.Run(refCfg)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	var got *experiments.RunResult
	res, err := Run(Config{
		Base:    base,
		Viewers: 1,
		OnViewer: func(i int, r *experiments.RunResult, verr error) {
			if verr != nil {
				t.Errorf("viewer %d: %v", i, verr)
				return
			}
			got = r // one viewer: the scratch is never reused after this
		},
	})
	if err != nil {
		t.Fatalf("cohort run: %v", err)
	}
	if res.Completed != 1 || res.Errors != 0 {
		t.Fatalf("completed=%d errors=%d (%s), want 1/0", res.Completed, res.Errors, res.FirstError)
	}
	if got == nil {
		t.Fatal("OnViewer never fired")
	}
	if !reflect.DeepEqual(*got, ref) {
		t.Errorf("cohort viewer result differs from Run:\ncohort: %+v\nrun:    %+v", *got, ref)
	}
	if res.SimEnd != ref.SimEnd {
		t.Errorf("cohort SimEnd %v != run SimEnd %v", res.SimEnd, ref.SimEnd)
	}
	if want := ref.CPUJ; res.CPUJ != want {
		t.Errorf("cohort CPUJ %v != run CPUJ %v", res.CPUJ, want)
	}
}

// goldenConfig is the pinned determinism scenario: several shards, a
// bursty live-event arrival, and a sectorized cell, so every
// cohort-specific mechanism is on the hook.
func goldenConfig(onRollup func(Rollup)) Config {
	base := shortBase()
	base.Duration = 8 * sim.Second
	return Config{
		Base:     base,
		Viewers:  48,
		Shards:   3,
		Arrival:  Arrival{Kind: ArrivalBurst, Window: 5 * sim.Second},
		Cell:     &Cell{CapacityMbps: 40, Sectors: 6},
		Rollup:   5 * sim.Second,
		Seed:     7,
		OnRollup: onRollup,
	}
}

// crowdedConfig is the crowded determinism scenario: one shard holding
// 400 Poisson-joining viewers over a sectored cell, so its engine keeps
// far more events pending than any single run does and files them in
// its calendar regime (DESIGN.md §8).
func crowdedConfig(onRollup func(Rollup)) Config {
	base := shortBase()
	base.Duration = 5 * sim.Second
	return Config{
		Base:     base,
		Viewers:  400,
		Shards:   1,
		Arrival:  Arrival{Kind: ArrivalPoisson, RatePerSec: 200},
		Cell:     &Cell{CapacityMbps: 250, Sectors: 4},
		Rollup:   sim.Second,
		Seed:     11,
		OnRollup: onRollup,
	}
}

// crowdedActive is the fewest viewers the crowded scenario must hold on
// air at one barrier: at about four pending events each, enough to keep
// its one engine well past the crowd threshold.
const crowdedActive = 200

// rollupStream runs a scenario and returns its NDJSON rollup frames plus
// the final result line — the byte stream /v1/cohort serves — and the
// most viewers active at any barrier.
func rollupStream(t *testing.T, config func(func(Rollup)) Config) ([]byte, int) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	peak := 0
	res, err := Run(config(func(r Rollup) {
		peak = max(peak, r.Active)
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), peak
}

// The rollup stream must be byte-identical across worker counts — the
// determinism contract that makes cohort results citable — and match the
// pinned golden file across commits. The golden scenario's shards cross
// into the engine's calendar regime and back; the crowded scenario's one
// shard stays in it from its first few joins to its end (DESIGN.md §8).
func TestGoldenRollupDeterministicAcrossWorkers(t *testing.T) {
	for _, tc := range []struct {
		name      string
		config    func(func(Rollup)) Config
		golden    string
		minActive int
	}{
		{"golden", goldenConfig, "golden_rollup.ndjson", 0},
		{"crowded", crowdedConfig, "golden_rollup_crowded.ndjson", crowdedActive},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial := func() []byte {
				prev := runtime.GOMAXPROCS(1)
				defer runtime.GOMAXPROCS(prev)
				out, _ := rollupStream(t, tc.config)
				return out
			}()
			parallel, peak := rollupStream(t, tc.config)
			if !bytes.Equal(serial, parallel) {
				t.Fatalf("rollup stream differs between GOMAXPROCS=1 and %d:\nserial:\n%sparallel:\n%s",
					runtime.NumCPU(), serial, parallel)
			}
			if peak < tc.minActive {
				t.Fatalf("at most %d viewers active at a barrier, want at least %d", peak, tc.minActive)
			}

			golden := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, parallel, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(parallel, want) {
				t.Errorf("rollup stream drifted from golden (regenerate with -update if intended):\ngot:\n%swant:\n%s",
					parallel, want)
			}
		})
	}
}

// A sector costs memory only once a viewer arrives in it. Nothing caps
// the sector count, and one small /v1/cohort body asked for 5,000,000
// sectors. Two viewers over 10,000,000 sectors must allocate little and
// match the same cohort over two sectors, which places them alike.
func TestSectorsPastTheAudienceCostNothing(t *testing.T) {
	config := func(sectors int) Config {
		base := shortBase()
		base.Duration = 5 * sim.Second
		return Config{Base: base, Viewers: 2, Cell: &Cell{CapacityMbps: 100, Sectors: sectors}}
	}
	want, err := Run(config(2))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := Run(config(10_000_000))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 10<<20 {
		t.Errorf("2 viewers over 10,000,000 sectors allocated %.1f MB, want under 10 MB", float64(alloc)/(1<<20))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("2 viewers over 10,000,000 sectors:\n%+v\nwant the 2-sector result:\n%+v", got, want)
	}
}

// A congested cell must actually bite: the same cohort on a starved
// sector rebuffers more than on an uncontended one. This is the
// "viewers actually interact" check.
func TestCellContentionDegradesPlayback(t *testing.T) {
	base := shortBase()
	run := func(cell *Cell) Result {
		res, err := Run(Config{Base: base, Viewers: 12, Cell: cell, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	free := run(nil)
	if free.Completed != 12 {
		t.Fatalf("uncontended cohort: %d/12 completed (%s)", free.Completed, free.FirstError)
	}
	// 12 viewers sharing 10 Mbps, each needing a few Mbps: heavy
	// contention, but enough to finish within the 6x horizon.
	tight := run(&Cell{CapacityMbps: 10})
	if got, want := tight.RebufferRatio.Mean, free.RebufferRatio.Mean; got <= want {
		t.Errorf("congested rebuffer mean %v not worse than uncontended %v", got, want)
	}
	if tight.SimEnd <= free.SimEnd {
		t.Errorf("congested cohort finished at %v, not later than uncontended %v", tight.SimEnd, free.SimEnd)
	}
}

// Join times are a pure function of (config, index): identical across
// calls, ordered for poisson, inside the window for burst/uniform.
func TestArrivalsDeterministicAndBounded(t *testing.T) {
	cfg := Config{Base: shortBase(), Viewers: 200, Seed: 11}
	for _, kind := range ArrivalKinds() {
		cfg.Arrival = Arrival{Kind: kind, Window: 30 * sim.Second, RatePerSec: 50}
		a, b := computeJoins(cfg), computeJoins(cfg)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: joins differ across calls", kind)
		}
		for i, j := range a {
			if j < 0 {
				t.Fatalf("%s: join %d negative: %v", kind, i, j)
			}
			if (kind == ArrivalUniform || kind == ArrivalBurst) && j > 30*sim.Second {
				t.Fatalf("%s: join %d outside window: %v", kind, i, j)
			}
		}
		if kind == ArrivalPoisson {
			for i := 1; i < len(a); i++ {
				if a[i] < a[i-1] {
					t.Fatalf("poisson joins not monotone at %d", i)
				}
			}
		}
	}
}

func TestValidateRejects(t *testing.T) {
	good := Config{Base: shortBase(), Viewers: 10}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero viewers", func(c *Config) { c.Viewers = 0 }},
		{"bad arrival", func(c *Config) { c.Arrival.Kind = "flashmob" }},
		{"uniform no window", func(c *Config) { c.Arrival = Arrival{Kind: ArrivalUniform} }},
		{"poisson no rate", func(c *Config) { c.Arrival = Arrival{Kind: ArrivalPoisson} }},
		{"bad cell capacity", func(c *Config) { c.Cell = &Cell{} }},
		{"negative shards", func(c *Config) { c.Shards = -1 }},
		{"negative rollup", func(c *Config) { c.Rollup = -sim.Second }},
		{"bad base governor", func(c *Config) { c.Base.Governor = "warp" }},
		{"bad base net", func(c *Config) { c.Base.Net = "carrier-pigeon" }},
		{"per-viewer sampling", func(c *Config) {
			c.Base.OnSample = func(sim.Time, float64, float64, float64) {}
		}},
	}
	for _, tc := range cases {
		cfg := good
		tc.mut(&cfg)
		if err := cfg.Validate(); !errors.Is(err, experiments.ErrInvalidConfig) {
			t.Errorf("%s: err = %v, want ErrInvalidConfig", tc.name, err)
		}
		if _, err := Run(cfg); !errors.Is(err, experiments.ErrInvalidConfig) {
			t.Errorf("%s: Run err = %v, want ErrInvalidConfig", tc.name, err)
		}
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

// A cohort steps one rollup barrier after another until its last viewer
// finishes, so a tiny rollup or a late last join asked for any number of
// barriers. Run refuses a worst-case count, (latest join + horizon) ÷
// rollup, above maxBarriers before stepping; the default and golden shapes
// and a cohort exactly at the cap still run. Each case has a deadline, so
// a cohort that is stepped instead of refused fails with ErrCanceled
// rather than hanging.
func TestRunRefusesUnboundedBarriers(t *testing.T) {
	small := DefaultConfig()
	small.Viewers = 4
	// 1/64 s rollups over a 156.25 s horizon: exactly maxBarriers.
	atCap := Config{Base: shortBase(), Viewers: 1, Rollup: sim.Second / 64}
	atCap.Base.Horizon = sim.Time(maxBarriers) / 64
	pastCap := atCap
	pastCap.Base.Horizon += sim.Second / 64
	cases := []struct {
		name    string
		cfg     Config
		refused bool
	}{
		{"tiny rollup", Config{Base: shortBase(), Viewers: 2, Rollup: 100 * sim.Microsecond}, true},
		{"slow poisson", Config{Base: shortBase(), Viewers: 2,
			Arrival: Arrival{Kind: ArrivalPoisson, RatePerSec: 1e-7}}, true},
		{"wide uniform window", Config{Base: shortBase(), Viewers: 2,
			Arrival: Arrival{Kind: ArrivalUniform, Window: 1e9 * sim.Second}}, true},
		{"one past the cap", pastCap, true},
		{"at the cap", atCap, false},
		{"default", small, false},
		{"golden", goldenConfig(nil), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cancel := make(chan struct{})
			deadline := time.AfterFunc(10*time.Second, func() { close(cancel) })
			defer deadline.Stop()
			tc.cfg.Cancel = cancel
			res, err := Run(tc.cfg)
			switch {
			case tc.refused && !errors.Is(err, experiments.ErrInvalidConfig):
				t.Fatalf("err = %v, want ErrInvalidConfig", err)
			case !tc.refused && err != nil:
				t.Fatalf("err = %v, want a run", err)
			case !tc.refused && res.Completed != tc.cfg.Viewers:
				t.Fatalf("completed %d of %d viewers (%s)", res.Completed, tc.cfg.Viewers, res.FirstError)
			}
		})
	}
}

// A shard lets go of a viewer as soon as it finishes: the completion
// cancels the viewer's horizon cut, so after the shard's last collect its
// engine holds only the radio tails of the last few finishers, not one
// event per viewer. A cut left queued until join + horizon keeps the
// viewer's whole device stack reachable, and the shard's heap would then
// track every viewer that finished within the last horizon (DESIGN.md
// §12).
func TestShardReleasesFinishedViewers(t *testing.T) {
	cfg := Config{
		Base:    shortBase(),
		Viewers: 60,
		Arrival: Arrival{Kind: ArrivalUniform, Window: 120 * sim.Second},
		Shards:  2,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	shards, err := runShards(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shards {
		if sh.agg.completed != sh.total {
			t.Fatalf("shard %d: %d of %d viewers completed (%s)", sh.idx, sh.agg.completed, sh.total, sh.agg.firstErr)
		}
		if p := sh.eng.Pending(); p >= sh.total {
			t.Errorf("shard %d: %d events still pending after its last viewer finished, for %d viewers", sh.idx, p, sh.total)
		}
	}
}

func TestKeyIdentity(t *testing.T) {
	base := shortBase()
	a := Config{Base: base, Viewers: 100}
	k1, ok := Key(a)
	if !ok || k1 == "" {
		t.Fatal("callback-free cohort must be cacheable")
	}
	// A zero shard/seed/rollup and their resolved spellings are the
	// same effective cohort — one identity.
	b := a
	b.Shards = a.shardCount()
	b.Seed = base.Seed
	b.Rollup = 10 * sim.Second
	if k2, _ := Key(b); k2 != k1 {
		t.Error("resolved and derived spellings of one cohort got different keys")
	}
	c := a
	c.Viewers = 101
	if k3, _ := Key(c); k3 == k1 {
		t.Error("different cohorts share a key")
	}
	d := a
	d.OnRollup = func(Rollup) {}
	if _, ok := Key(d); ok {
		t.Error("OnRollup cohort reported cacheable")
	}
	e := a
	e.Base.Strict = true
	if _, ok := Key(e); ok {
		t.Error("strict cohort reported cacheable")
	}
}

// The full-scale acceptance run: a 100k-viewer live-event burst over a
// sectorized cell on one node. Gated behind COHORT_ACCEPT=1 — it is a
// capacity test, not a unit test.
func TestAcceptance100k(t *testing.T) {
	if os.Getenv("COHORT_ACCEPT") == "" {
		t.Skip("set COHORT_ACCEPT=1 to run the 100k-viewer acceptance cohort")
	}
	// A feasible live event: 100k mobile viewers at the 360p rung
	// (0.8 Mbps, ABRFixed) bursting onto 1024 sectors of 100 Mbps —
	// ~98 viewers/sector, ~78% steady-state sector utilization, so
	// playback is contended but not starved. (64 sectors at 150 Mbps
	// would be 40x oversubscribed: every viewer rebuffers to its
	// horizon and the run never ends.)
	base := experiments.DefaultRunConfig()
	base.Rung = video.R360p
	base.Duration = 30 * sim.Second
	res, err := Run(Config{
		Base:    base,
		Viewers: 100_000,
		Arrival: Arrival{Kind: ArrivalBurst, Window: 30 * sim.Second},
		Cell:    &Cell{CapacityMbps: 100, Sectors: 1024},
		Rollup:  30 * sim.Second,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed+res.Errors != 100_000 {
		t.Fatalf("accounting: %d completed + %d errors != 100000", res.Completed, res.Errors)
	}
	if res.Completed < 99_000 {
		t.Fatalf("only %d/100000 completed (first error: %s)", res.Completed, res.FirstError)
	}
	t.Logf("100k cohort: completed=%d cut=%d errors=%d energy p50=%.1f J p99=%.1f J rebuffer p90=%.4f end=%v",
		res.Completed, res.HorizonCut, res.Errors,
		res.EnergyJ.P50, res.EnergyJ.P99, res.RebufferRatio.P90, res.SimEnd)
}

// A panic in a shard must reach the goroutine that called Run or RunPart
// at any worker count: dvfsd runs cohorts under campaign.Protect, and a
// panic escaping on a stepping goroutine would kill the process instead
// of failing one request. One rollup period spans the whole run, so both
// shards panic at the same barrier and the lower shard's panic wins.
func TestShardPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := Config{Base: shortBase(), Viewers: 4, Shards: 2, Rollup: 3600 * sim.Second}
	cfg.OnViewer = func(i int, _ *experiments.RunResult, _ error) {
		panic(fmt.Sprintf("viewer bug in shard %d", cfg.shardOf(i, 2)))
	}
	for name, run := range map[string]func() error{
		"Run":     func() error { _, err := Run(cfg); return err },
		"RunPart": func() error { _, err := RunPart(cfg, []int{1, 0}); return err },
	} {
		var pe *campaign.PanicError
		if err := campaign.Protect(0, run); !errors.As(err, &pe) || pe.Value != "viewer bug in shard 0" {
			t.Errorf("%s: err = %v, want a *campaign.PanicError for shard 0's panic", name, err)
		}
	}
}

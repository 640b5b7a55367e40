package core

import (
	"math"
	"testing"

	"videodvfs/internal/cpu"
	"videodvfs/internal/sim"
	"videodvfs/internal/video"
)

func twoOPPCore(t *testing.T) (*sim.Engine, *cpu.Core) {
	t.Helper()
	eng := sim.NewEngine()
	core, err := cpu.NewCore(eng, cpu.Model{
		Name: "test",
		OPPs: []cpu.OPP{
			{FreqHz: 1e9, VoltageV: 0.8, ActiveW: 1, IdleW: 0.1},
			{FreqHz: 2e9, VoltageV: 1.0, ActiveW: 3, IdleW: 0.2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, core
}

func pFrame(idx int, cycles float64) video.Frame {
	return video.Frame{Index: idx, Type: video.FrameP, Cycles: cycles}
}

// warmGovernor returns an attached governor with its predictor trained to
// a steady `cycles` for P frames, in playing state at 30 fps.
func warmGovernor(t *testing.T, eng *sim.Engine, core *cpu.Core, cycles float64) *Governor {
	t.Helper()
	g, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Attach(eng, core); err != nil {
		t.Fatal(err)
	}
	g.StreamInfo(30, 0)
	for i := 0; i < 60; i++ {
		g.DecodeEnd(0, pFrame(i, cycles), 0, cycles)
	}
	g.PlaybackState(0, true)
	return g
}

func TestGovernorQueueSetpointBudget(t *testing.T) {
	eng, core := twoOPPCore(t)
	g := warmGovernor(t, eng, core, 30e6)
	// cap 8 → target 4. Full-ish queue (ready 7) → budget 4 frame
	// periods ≈ 133 ms → need ≈ 259 MHz → OPP 0.
	g.DecodeStart(0, pFrame(100, 30e6), sim.Second, 7, 8)
	if core.OPP() != 0 {
		t.Fatalf("OPP = %d, want 0 with a full queue", core.OPP())
	}
	// At the setpoint (ready 4) → budget 1 period ≈ 33 ms → need
	// ≈ 1.04 GHz → OPP 1.
	g.DecodeStart(0, pFrame(101, 30e6), sim.Second, 4, 8)
	if core.OPP() != 1 {
		t.Fatalf("OPP = %d, want 1 at the setpoint", core.OPP())
	}
	// Low queue (ready 1) → sprint at half a period → still OPP 1 (max
	// of this table) but via a bigger need.
	g.DecodeStart(0, pFrame(102, 30e6), sim.Second, 1, 8)
	if core.OPP() != 1 {
		t.Fatalf("OPP = %d, want 1 while refilling", core.OPP())
	}
}

func TestGovernorBudgetCappedBySlack(t *testing.T) {
	eng, core := twoOPPCore(t)
	g := warmGovernor(t, eng, core, 80e6)
	// Full queue would grant 133 ms, but the deadline leaves only 50 ms:
	// need = 80e6·1.15/0.05 ≈ 1.84 GHz → OPP 1.
	g.DecodeStart(0, pFrame(100, 80e6), 50*sim.Millisecond+g.cfg.Guard, 7, 8)
	if core.OPP() != 1 {
		t.Fatalf("OPP = %d, want 1 when the deadline binds", core.OPP())
	}
	// Same queue, relaxed deadline → the queue rule governs → OPP 0.
	g.DecodeStart(0, pFrame(101, 80e6), sim.Second, 7, 8)
	if core.OPP() != 0 {
		t.Fatalf("OPP = %d, want 0 with relaxed deadline", core.OPP())
	}
}

func TestGovernorBoostsWhenSlackGone(t *testing.T) {
	eng, core := twoOPPCore(t)
	g := warmGovernor(t, eng, core, 80e6)
	g.DecodeStart(0, pFrame(5, 80e6), 0, 4, 8) // deadline already passed
	if core.OPP() != core.Model().MaxIdx() {
		t.Fatalf("OPP = %d, want max on missed slack", core.OPP())
	}
	if g.BoostFrames() == 0 {
		t.Fatal("boost not recorded")
	}
}

func TestGovernorBoostsWhenPredictorCold(t *testing.T) {
	eng, core := twoOPPCore(t)
	g, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Attach(eng, core); err != nil {
		t.Fatal(err)
	}
	g.PlaybackState(0, true)
	g.DecodeStart(0, pFrame(0, 80e6), sim.Second, 4, 8)
	if core.OPP() != core.Model().MaxIdx() {
		t.Fatalf("cold predictor should boost, OPP = %d", core.OPP())
	}
}

func TestGovernorStartupBoost(t *testing.T) {
	eng, core := twoOPPCore(t)
	g := warmGovernor(t, eng, core, 80e6)
	g.PlaybackState(0, false) // preroll/stall
	g.DecodeStart(0, pFrame(0, 80e6), sim.Second, 4, 8)
	if core.OPP() != core.Model().MaxIdx() {
		t.Fatalf("startup decode should boost, OPP = %d", core.OPP())
	}
}

func TestGovernorRaceToIdle(t *testing.T) {
	eng, core := twoOPPCore(t)
	g := warmGovernor(t, eng, core, 80e6)
	core.SetOPP(1)
	g.DecoderIdle(0)
	if core.OPP() != 0 {
		t.Fatalf("OPP = %d after idle, want 0", core.OPP())
	}
}

func TestGovernorRaceToIdleDisabled(t *testing.T) {
	eng, core := twoOPPCore(t)
	cfg := DefaultConfig()
	cfg.RaceToIdle = false
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Attach(eng, core); err != nil {
		t.Fatal(err)
	}
	g.PlaybackState(0, true)
	core.SetOPP(1)
	g.DecoderIdle(0)
	if core.OPP() != 1 {
		t.Fatalf("OPP = %d, want unchanged with race-to-idle off", core.OPP())
	}
}

func TestGovernorKeepsBoostWhilePrerollDownloading(t *testing.T) {
	eng, core := twoOPPCore(t)
	g := warmGovernor(t, eng, core, 80e6)
	g.PlaybackState(0, false)
	g.DownloadActivity(0, true)
	core.SetOPP(1)
	g.DecoderIdle(0) // momentary idle between preroll segments
	if core.OPP() != 1 {
		t.Fatalf("OPP = %d, preroll idle should not drop the boost", core.OPP())
	}
}

func TestGovernorMinOPPFloor(t *testing.T) {
	eng, core := twoOPPCore(t)
	cfg := DefaultConfig()
	cfg.MinOPP = 1
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Attach(eng, core); err != nil {
		t.Fatal(err)
	}
	if core.OPP() != 1 {
		t.Fatalf("attach should park at the floor, OPP = %d", core.OPP())
	}
	g.PlaybackState(0, true)
	for i := 0; i < 30; i++ {
		g.DecodeEnd(0, pFrame(i, 1e6), 0, 1e6)
	}
	g.DecodeStart(0, pFrame(50, 1e6), sim.Second, 4, 8) // tiny demand
	if core.OPP() != 1 {
		t.Fatalf("OPP = %d, want floor respected", core.OPP())
	}
}

func TestGovernorPredictionStats(t *testing.T) {
	eng, core := twoOPPCore(t)
	g := warmGovernor(t, eng, core, 80e6)
	// Prediction ≈ 80e6 (σ≈0); actual 100e6 → underestimate.
	g.DecodeStart(0, pFrame(200, 100e6), 100*sim.Millisecond, 4, 8)
	g.DecodeEnd(0, pFrame(200, 100e6), 100*sim.Millisecond, 100e6)
	st := g.PredStats()
	if st.N != 1 || st.Underestimates != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if math.Abs(st.RelErrP(50)-0.2) > 0.05 {
		t.Fatalf("relative error %v, want ≈0.2", st.RelErrP(50))
	}
	if st.UnderRate() != 1 {
		t.Fatalf("under rate = %v", st.UnderRate())
	}
}

// stubScaler is a FreqScaler with no event-loop machinery behind it, so
// the allocation test measures only the governor's own decision path.
type stubScaler struct {
	model cpu.Model
	opp   int
}

func (s *stubScaler) Model() cpu.Model { return s.model }
func (s *stubScaler) SetOPP(idx int)   { s.opp = idx }

// TestDecisionPathAllocFree pins the untraced hot path's contract: a
// warmed governor makes frequency decisions with zero heap allocations
// when no tracer is attached (see trace.Tracer's package doc).
func TestDecisionPathAllocFree(t *testing.T) {
	scaler := &stubScaler{model: cpu.Model{
		Name: "test",
		OPPs: []cpu.OPP{
			{FreqHz: 1e9, VoltageV: 0.8, ActiveW: 1, IdleW: 0.1},
			{FreqHz: 2e9, VoltageV: 1.0, ActiveW: 3, IdleW: 0.2},
		},
	}}
	g, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AttachScaler(nil, scaler); err != nil {
		t.Fatal(err)
	}
	g.StreamInfo(30, 0)
	for i := 0; i < 60; i++ {
		g.DecodeEnd(0, pFrame(i, 30e6), 0, 30e6)
	}
	g.PlaybackState(0, true)
	f := pFrame(100, 30e6)
	// Warm once so the lastPred map entry for this index exists; the
	// steady state then rewrites it in place.
	g.DecodeStart(0, f, sim.Second, 4, 8)
	allocs := testing.AllocsPerRun(1000, func() {
		g.DecodeStart(0, f, sim.Second, 4, 8)
	})
	if allocs != 0 {
		t.Fatalf("decision path allocates %v per run, want 0", allocs)
	}
}

func TestGovernorDoubleAttach(t *testing.T) {
	eng, core := twoOPPCore(t)
	g, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Attach(eng, core); err != nil {
		t.Fatal(err)
	}
	if err := g.Attach(eng, core); err == nil {
		t.Fatal("want error on second attach")
	}
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Margin = -0.1 },
		func(c *Config) { c.Margin = 3 },
		func(c *Config) { c.SigmaK = -1 },
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.Guard = -1 },
		func(c *Config) { c.MinOPP = -1 },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
	bad := DefaultConfig()
	bad.Predictor = PredictorKind(99)
	if _, err := New(bad); err == nil {
		t.Error("want error for unknown predictor kind")
	}
}

func TestOracleExactSelection(t *testing.T) {
	eng, core := twoOPPCore(t)
	o := &Oracle{}
	if err := o.Attach(eng, core); err != nil {
		t.Fatal(err)
	}
	o.StreamInfo(30, 0)
	o.PlaybackState(0, true)
	// Full queue (ready 7, cap 8): budget = 4 periods ≈ 133 ms for
	// 30 M cycles → ≈225 MHz → OPP 0, exactly minimal.
	o.DecodeStart(0, pFrame(0, 30e6), sim.Second, 7, 8)
	if core.OPP() != 0 {
		t.Fatalf("oracle OPP = %d, want 0", core.OPP())
	}
	// At the setpoint (ready 4): budget = 1 period for 50 M cycles
	// → 1.5 GHz → OPP 1.
	o.DecodeStart(0, pFrame(1, 50e6), sim.Second, 4, 8)
	if core.OPP() != 1 {
		t.Fatalf("oracle OPP = %d, want 1", core.OPP())
	}
	o.DecodeStart(0, pFrame(2, 80e6), 0, 4, 8)
	if core.OPP() != 1 {
		t.Fatalf("oracle should boost on missed slack")
	}
}

func TestOracleRaceToIdleAndStartup(t *testing.T) {
	eng, core := twoOPPCore(t)
	o := &Oracle{}
	if err := o.Attach(eng, core); err != nil {
		t.Fatal(err)
	}
	o.DecodeStart(0, pFrame(0, 1), sim.Second, 4, 8)
	if core.OPP() != 1 {
		t.Fatal("oracle should boost before playback")
	}
	o.PlaybackState(0, true)
	o.DecoderIdle(0)
	if core.OPP() != 0 {
		t.Fatal("oracle should race to idle")
	}
	if err := o.Attach(eng, core); err == nil {
		t.Fatal("want error on oracle double attach")
	}
}

func TestPredictorPerTypeLearnsSeparateMeans(t *testing.T) {
	p, err := NewPredictor(PredictPerTypeSigma, 0.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Predict(video.FrameI); ok {
		t.Fatal("cold predictor should not predict")
	}
	for i := 0; i < 200; i++ {
		p.Observe(video.FrameI, 30e6)
		p.Observe(video.FrameB, 10e6)
	}
	iPred, ok := p.Predict(video.FrameI)
	if !ok {
		t.Fatal("I prediction unavailable")
	}
	bPred, ok := p.Predict(video.FrameB)
	if !ok {
		t.Fatal("B prediction unavailable")
	}
	if math.Abs(iPred-30e6) > 1e5 || math.Abs(bPred-10e6) > 1e5 {
		t.Fatalf("per-type means wrong: I=%.3g B=%.3g", iPred, bPred)
	}
	if _, ok := p.Predict(video.FrameP); ok {
		t.Fatal("unseen type should not predict")
	}
}

func TestPredictorGlobalMergesTypes(t *testing.T) {
	p, err := NewPredictor(PredictGlobal, 0.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		p.Observe(video.FrameI, 30e6)
		p.Observe(video.FrameB, 10e6)
	}
	got, ok := p.Predict(video.FrameI)
	if !ok {
		t.Fatal("prediction unavailable")
	}
	// Alternating observations pull the EWMA between the two levels.
	if got < 10e6 || got > 30e6 {
		t.Fatalf("global prediction %.3g outside the sample range", got)
	}
}

func TestPredictorSigmaAddsHeadroom(t *testing.T) {
	mk := func(k float64) Predictor {
		p, err := NewPredictor(PredictPerTypeSigma, 0.2, k)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	noisy := []float64{8e6, 12e6, 9e6, 11e6, 10e6, 13e6, 7e6}
	p0, p2 := mk(0), mk(2)
	for i := 0; i < 40; i++ {
		x := noisy[i%len(noisy)]
		p0.Observe(video.FrameP, x)
		p2.Observe(video.FrameP, x)
	}
	a, _ := p0.Predict(video.FrameP)
	b, _ := p2.Predict(video.FrameP)
	if b <= a {
		t.Fatalf("k=2 prediction (%.3g) should exceed k=0 (%.3g)", b, a)
	}
}

func TestNewPredictorValidation(t *testing.T) {
	if _, err := NewPredictor(PredictGlobal, 0, 1); err == nil {
		t.Error("want error for zero alpha")
	}
	if _, err := NewPredictor(PredictGlobal, 0.5, -1); err == nil {
		t.Error("want error for negative k")
	}
	if _, err := NewPredictor(PredictorKind(0), 0.5, 1); err == nil {
		t.Error("want error for unknown kind")
	}
}

func TestPredictorKindStrings(t *testing.T) {
	for _, k := range PredictorKinds() {
		if k.String() == "?" {
			t.Fatalf("kind %d has no label", k)
		}
	}
	if PredictorKind(0).String() != "?" {
		t.Fatal("zero kind should stringify as ?")
	}
}

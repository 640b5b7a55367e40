package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"videodvfs/internal/cpu"
	"videodvfs/internal/player"
	"videodvfs/internal/sim"
	"videodvfs/internal/trace"
	"videodvfs/internal/video"
)

// The per-frame rule (Governor.need and DecodeStart) must be pointwise
// equivalent to the original predict → slack → OPP pick, and the big.LITTLE
// placement over it to the original ClusterGovernor. decodeStartLegacy and
// clusterLegacy are those originals, kept semantically frozen here as
// oracles; the property tests below drive both sides through identical
// randomized scenarios — random device tables, predictor states, buffer
// depths, slack values, playback-state interleavings — and require
// bit-identical decisions, trace events, and counters.

// decodeStartLegacy is the pre-flattening DecodeStart, retained verbatim
// as the oracle for the equivalence property tests. It must stay
// semantically frozen: any change here invalidates the tests' ground truth.
func decodeStartLegacy(g *Governor, now sim.Time, f video.Frame, deadline sim.Time, ready, queueCap int) {
	if g.core == nil {
		return
	}
	model := g.core.Model()
	if g.cfg.StartupBoost && !g.playing {
		g.boostFrames++
		g.core.SetOPP(model.MaxIdx())
		if g.tracer != nil {
			g.tracer.Decision(trace.DecisionEvent{T: now, Frame: f.Index, Type: f.Type, OPP: model.MaxIdx(), Boost: true})
		}
		return
	}
	pred, ok := g.pred.Predict(f.Type)
	if !ok {
		// Cold predictor: be safe, learn fast.
		g.boostFrames++
		g.core.SetOPP(model.MaxIdx())
		if g.tracer != nil {
			g.tracer.Decision(trace.DecisionEvent{T: now, Frame: f.Index, Type: f.Type, OPP: model.MaxIdx(), Boost: true})
		}
		return
	}
	g.predIdx, g.predVal, g.predOK = f.Index, pred, true
	slack := deadline - now - g.cfg.Guard
	if slack <= 0 {
		g.boostFrames++
		g.core.SetOPP(model.MaxIdx())
		if g.tracer != nil {
			g.tracer.Decision(trace.DecisionEvent{T: now, Frame: f.Index, Type: f.Type,
				PredCycles: pred, Slack: slack, OPP: model.MaxIdx(), Boost: true})
		}
		return
	}
	budget := budgetFor(slack, ready, queueCap, g.period, g.cfg.TargetQueueFrac, g.cfg.SprintFrames)
	need := pred * (1 + g.cfg.Margin) / budget.Seconds()
	idx := model.IdxForFreq(need)
	minIdx := g.cfg.MinOPP
	if max := model.MaxIdx(); minIdx > max {
		minIdx = max
	}
	if idx < minIdx {
		idx = minIdx
	}
	if idx == minIdx {
		g.lowFrames++
	}
	g.core.SetOPP(idx)
	if g.tracer != nil {
		g.tracer.Decision(trace.DecisionEvent{T: now, Frame: f.Index, Type: f.Type,
			PredCycles: pred, Slack: slack, Budget: budget, OPP: idx})
	}
}

// clusterLegacy is the big.LITTLE policy as it stood before it became a
// placement over Governor.need, with its own predictor, frame period,
// playback state and copy of the boost ladder. It is the frozen oracle for
// TestClusterGovernorEquivalence.
type clusterLegacy struct {
	player.NopSessionHooks
	cfg         Config
	pred        Predictor
	big         *cpu.Core
	little      *cpu.Core
	playing     bool
	downloading bool
	period      sim.Time

	framesOnLittle int
	framesOnBig    int
}

func newClusterLegacy(big, little *cpu.Core, cfg Config) (*clusterLegacy, error) {
	pred, err := NewPredictor(cfg.Predictor, cfg.Alpha, cfg.SigmaK)
	if err != nil {
		return nil, err
	}
	big.SetOPP(0)
	little.SetOPP(0)
	return &clusterLegacy{cfg: cfg, pred: pred, big: big, little: little}, nil
}

func (g *clusterLegacy) StreamInfo(fps float64, _ int) {
	if fps > 0 {
		g.period = sim.Time(1 / fps)
	}
}

func (g *clusterLegacy) DecodeStart(now sim.Time, f video.Frame, deadline sim.Time, ready, queueCap int) {
	pol := g.cfg
	if pol.StartupBoost && !g.playing {
		g.placeBig(g.big.Model().MaxIdx())
		return
	}
	pred, ok := g.pred.Predict(f.Type)
	if !ok {
		g.placeBig(g.big.Model().MaxIdx())
		return
	}
	slack := deadline - now - pol.Guard
	if slack <= 0 {
		g.placeBig(g.big.Model().MaxIdx())
		return
	}
	budget := budgetFor(slack, ready, queueCap, g.period, pol.TargetQueueFrac, pol.SprintFrames)
	need := pred * (1 + pol.Margin) / budget.Seconds()
	if need <= 0.85*g.little.Model().Fmax() {
		g.placeLittle(g.little.Model().IdxForFreq(need))
		return
	}
	g.placeBig(g.big.Model().IdxForFreq(need))
}

func (g *clusterLegacy) placeBig(opp int) {
	g.framesOnBig++
	g.big.SetOPP(opp)
}

func (g *clusterLegacy) placeLittle(opp int) {
	g.framesOnLittle++
	g.little.SetOPP(opp)
	if g.cfg.RaceToIdle {
		g.big.SetOPP(0)
	}
}

func (g *clusterLegacy) DecodeEnd(_ sim.Time, f video.Frame, _ sim.Time, measuredCycles float64) {
	g.pred.Observe(f.Type, measuredCycles)
}

func (g *clusterLegacy) DecoderIdle(sim.Time) {
	if !g.cfg.RaceToIdle {
		return
	}
	if g.cfg.StartupBoost && !g.playing && g.downloading {
		return
	}
	g.big.SetOPP(0)
	g.little.SetOPP(0)
}

func (g *clusterLegacy) PlaybackState(_ sim.Time, playing bool) {
	g.playing = playing
	if !playing && g.cfg.RaceToIdle {
		g.big.SetOPP(0)
		g.little.SetOPP(0)
	}
}

func (g *clusterLegacy) DownloadActivity(_ sim.Time, active bool) { g.downloading = active }

// legacyGovernor routes a Governor's DecodeStart through decodeStartLegacy.
type legacyGovernor struct{ *Governor }

func (l legacyGovernor) DecodeStart(now sim.Time, f video.Frame, deadline sim.Time, ready, queueCap int) {
	decodeStartLegacy(l.Governor, now, f, deadline, ready, queueCap)
}

// recordScaler logs every SetOPP so two governors' decision sequences can
// be compared verbatim.
type recordScaler struct {
	model cpu.Model
	opps  []int
}

func (s *recordScaler) Model() cpu.Model { return s.model }
func (s *recordScaler) SetOPP(idx int)   { s.opps = append(s.opps, idx) }

// recordTracer logs the structured decision stream.
type recordTracer struct {
	trace.Nop
	decisions []trace.DecisionEvent
}

func (r *recordTracer) Decision(e trace.DecisionEvent) { r.decisions = append(r.decisions, e) }

// flatScenario is one randomized governor workload. It implements
// quick.Generator so testing/quick can draw structurally valid instances:
// an ascending-frequency OPP table, a valid Config, and a frame/event
// script exercising every branch of the decision ladder.
type flatScenario struct {
	model cpu.Model
	cfg   Config
	fps   float64
	steps []flatStep
}

// flatStep is one scripted hook invocation.
type flatStep struct {
	op       int // 0 = DecodeStart(+DecodeEnd), 1 = PlaybackState, 2 = DownloadActivity, 3 = DecoderIdle
	ftype    video.FrameType
	slack    sim.Time // deadline − now offset (may be ≤ guard to force boosts)
	ready    int
	queueCap int
	cycles   float64 // measured demand fed back via DecodeEnd
	endFirst bool    // score DecodeEnd for the PREVIOUS frame before this start
	flag     bool    // playing / downloading argument
}

// Generate implements quick.Generator.
func (flatScenario) Generate(r *rand.Rand, _ int) reflect.Value {
	nOPP := 2 + r.Intn(14)
	opps := make([]cpu.OPP, nOPP)
	hz := 1e8 * (1 + r.Float64())
	for i := range opps {
		hz += 1e7 + r.Float64()*4e8 // strictly ascending, 10 MHz–400 MHz steps
		opps[i] = cpu.OPP{FreqHz: hz, VoltageV: 0.6 + 0.05*float64(i), ActiveW: 0.3 + 0.2*float64(i), IdleW: 0.05}
	}
	model := cpu.Model{Name: "prop", OPPs: opps}

	cfg := DefaultConfig()
	cfg.Margin = r.Float64() * 2
	cfg.SigmaK = r.Float64() * 4
	cfg.Alpha = 0.01 + r.Float64()*0.99
	cfg.Guard = sim.Time(r.Float64() * 5 * float64(sim.Millisecond))
	cfg.TargetQueueFrac = 0.05 + r.Float64()*0.95
	cfg.SprintFrames = 0.05 + r.Float64()*0.95
	cfg.RaceToIdle = r.Intn(2) == 0
	cfg.StartupBoost = r.Intn(2) == 0
	cfg.MinOPP = r.Intn(nOPP + 2) // may exceed MaxIdx: exercises the clamp
	cfg.Predictor = PredictorKind(1 + r.Intn(3))

	var fps float64
	if r.Intn(4) > 0 {
		fps = []float64{24, 30, 60}[r.Intn(3)]
	} // else 0: the period≤0 estimate-from-slack fallback

	steps := make([]flatStep, 40+r.Intn(120))
	for i := range steps {
		st := flatStep{
			op:       r.Intn(8), // DecodeStart-heavy mix
			ftype:    video.FrameType(1 + r.Intn(3)),
			slack:    sim.Time((r.Float64()*80 - 10) * float64(sim.Millisecond)), // negatives force the slack≤0 boost
			ready:    r.Intn(12) - 1,                                             // −1: a depth no decoder reports
			queueCap: 1 + r.Intn(12),
			cycles:   1e6 + r.Float64()*5e8,
			endFirst: r.Intn(4) > 0, // sometimes skip scoring: stale-slot handling
			flag:     r.Intn(2) == 0,
		}
		if st.op > 3 {
			st.op = 0
		}
		steps[i] = st
	}
	return reflect.ValueOf(flatScenario{model: model, cfg: cfg, fps: fps, steps: steps})
}

// playScenario drives one governor through the scenario's script and
// returns everything observable about its behavior.
func playScenario(t *testing.T, sc flatScenario, legacy bool) (*recordScaler, *recordTracer, *Governor) {
	t.Helper()
	g, err := New(sc.cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", sc.cfg, err)
	}
	scaler := &recordScaler{model: sc.model}
	if err := g.AttachScaler(nil, scaler); err != nil {
		t.Fatal(err)
	}
	tr := &recordTracer{}
	g.SetTracer(tr)
	if legacy {
		playSteps(sc, legacyGovernor{g})
	} else {
		playSteps(sc, g)
	}
	return scaler, tr, g
}

// playSteps announces the stream and runs the scenario's hook script.
func playSteps(sc flatScenario, h player.SessionHooks) {
	h.StreamInfo(sc.fps, len(sc.steps))
	now := sim.Time(0)
	frame := 0
	var prev video.Frame
	havePrev := false
	for _, st := range sc.steps {
		now += sim.Millisecond
		switch st.op {
		case 0:
			if st.endFirst && havePrev {
				h.DecodeEnd(now, prev, now, st.cycles)
				havePrev = false
			}
			f := video.Frame{Index: frame, Type: st.ftype}
			frame++
			h.DecodeStart(now, f, now+st.slack, st.ready, st.queueCap)
			prev, havePrev = f, true
		case 1:
			h.PlaybackState(now, st.flag)
		case 2:
			h.DownloadActivity(now, st.flag)
		case 3:
			h.DecoderIdle(now)
		}
	}
}

// TestFlatGovernorEquivalence is the headline property: for random device
// tables, tunings, predictor states, and hook interleavings, the flat path
// and the legacy oracle emit identical SetOPP sequences, identical decision
// events, and identical accuracy counters.
func TestFlatGovernorEquivalence(t *testing.T) {
	prop := func(sc flatScenario) bool {
		flatScaler, flatTr, flatG := playScenario(t, sc, false)
		legScaler, legTr, legG := playScenario(t, sc, true)

		if !reflect.DeepEqual(flatScaler.opps, legScaler.opps) {
			t.Logf("SetOPP sequences diverge:\nflat:   %v\nlegacy: %v\ncfg: %+v", flatScaler.opps, legScaler.opps, sc.cfg)
			return false
		}
		if !reflect.DeepEqual(flatTr.decisions, legTr.decisions) {
			t.Logf("decision events diverge:\nflat:   %+v\nlegacy: %+v", flatTr.decisions, legTr.decisions)
			return false
		}
		if flatG.BoostFrames() != legG.BoostFrames() || flatG.lowFrames != legG.lowFrames {
			t.Logf("counters diverge: boost %d/%d low %d/%d",
				flatG.BoostFrames(), legG.BoostFrames(), flatG.lowFrames, legG.lowFrames)
			return false
		}
		if !reflect.DeepEqual(flatG.PredStats(), legG.PredStats()) {
			t.Logf("pred stats diverge:\nflat:   %+v\nlegacy: %+v", flatG.PredStats(), legG.PredStats())
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestClusterGovernorEquivalence drives the big.LITTLE placement and the
// frozen clusterLegacy through the same scripts on a flagship big and an
// efficient little core, and requires identical OPP transitions on both
// clusters and identical per-cluster frame counts.
func TestClusterGovernorEquivalence(t *testing.T) {
	type opp struct {
		big bool
		idx int
	}
	var onBig, onLittle int
	play := func(sc flatScenario, cfg Config, legacy bool) (opps []opp, big, little int) {
		eng := sim.NewEngine()
		bc, err := cpu.NewCore(eng, cpu.DeviceFlagship())
		if err != nil {
			t.Fatal(err)
		}
		lc, err := cpu.NewCore(eng, cpu.DeviceEfficient())
		if err != nil {
			t.Fatal(err)
		}
		bc.OnOPPChange(func(_ sim.Time, idx int) { opps = append(opps, opp{true, idx}) })
		lc.OnOPPChange(func(_ sim.Time, idx int) { opps = append(opps, opp{false, idx}) })
		if legacy {
			g, err := newClusterLegacy(bc, lc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			playSteps(sc, g)
			return opps, g.framesOnBig, g.framesOnLittle
		}
		g, err := NewClusterGovernor(bc, lc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		playSteps(sc, g)
		return opps, g.FramesOnBig(), g.FramesOnLittle()
	}
	prop := func(sc flatScenario, shift uint8) bool {
		// The scripts' demand is sized for one big core; scale it down by
		// up to 128× so frames land on both clusters.
		for i := range sc.steps {
			sc.steps[i].cycles /= float64(int(1) << (shift % 8))
		}
		cfg := sc.cfg
		gotOPPs, gotBig, gotLittle := play(sc, cfg, false)
		wantOPPs, wantBig, wantLittle := play(sc, cfg, true)
		if !reflect.DeepEqual(gotOPPs, wantOPPs) {
			t.Logf("OPP transitions diverge:\ncluster: %v\nlegacy:  %v\ncfg: %+v", gotOPPs, wantOPPs, cfg)
			return false
		}
		if gotBig != wantBig || gotLittle != wantLittle {
			t.Logf("placements diverge: big %d/%d little %d/%d", gotBig, wantBig, gotLittle, wantLittle)
			return false
		}
		onBig += gotBig
		onLittle += gotLittle
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if onBig == 0 || onLittle == 0 {
		t.Fatalf("scripts placed %d frames big and %d little; both clusters must be exercised", onBig, onLittle)
	}
}

// TestGovernorResetEquivalence: a Reset governor must behave exactly like a
// newly constructed one on the same scenario — including across configs
// that swap the predictor family (forcing reconstruction) and configs that
// keep it (zeroed in place).
func TestGovernorResetEquivalence(t *testing.T) {
	prop := func(first, second flatScenario) bool {
		recycled, err := New(first.cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Dirty the governor thoroughly with the first scenario…
		scaler := &recordScaler{model: first.model}
		if err := recycled.AttachScaler(nil, scaler); err != nil {
			t.Fatal(err)
		}
		recycled.StreamInfo(first.fps, len(first.steps))
		now := sim.Time(0)
		for i, st := range first.steps {
			now += sim.Millisecond
			f := video.Frame{Index: i, Type: st.ftype}
			recycled.DecodeStart(now, f, now+st.slack, st.ready, st.queueCap)
			recycled.DecodeEnd(now, f, now, st.cycles)
		}
		// …then Reset into the second config and replay it against fresh.
		if err := recycled.Reset(second.cfg); err != nil {
			t.Fatal(err)
		}
		rs := &recordScaler{model: second.model}
		if err := recycled.AttachScaler(nil, rs); err != nil {
			t.Fatal(err)
		}
		rt := &recordTracer{}
		recycled.SetTracer(rt)
		recycled.StreamInfo(second.fps, len(second.steps))
		now = 0
		frame := 0
		for _, st := range second.steps {
			now += sim.Millisecond
			switch st.op {
			case 0:
				f := video.Frame{Index: frame, Type: st.ftype}
				frame++
				recycled.DecodeStart(now, f, now+st.slack, st.ready, st.queueCap)
				if st.endFirst {
					recycled.DecodeEnd(now, f, now, st.cycles)
				}
			case 1:
				recycled.PlaybackState(now, st.flag)
			case 2:
				recycled.DownloadActivity(now, st.flag)
			case 3:
				recycled.DecoderIdle(now)
			}
		}

		fresh, err := New(second.cfg)
		if err != nil {
			t.Fatal(err)
		}
		fs := &recordScaler{model: second.model}
		if err := fresh.AttachScaler(nil, fs); err != nil {
			t.Fatal(err)
		}
		ft := &recordTracer{}
		fresh.SetTracer(ft)
		fresh.StreamInfo(second.fps, len(second.steps))
		now = 0
		frame = 0
		for _, st := range second.steps {
			now += sim.Millisecond
			switch st.op {
			case 0:
				f := video.Frame{Index: frame, Type: st.ftype}
				frame++
				fresh.DecodeStart(now, f, now+st.slack, st.ready, st.queueCap)
				if st.endFirst {
					fresh.DecodeEnd(now, f, now, st.cycles)
				}
			case 1:
				fresh.PlaybackState(now, st.flag)
			case 2:
				fresh.DownloadActivity(now, st.flag)
			case 3:
				fresh.DecoderIdle(now)
			}
		}

		if !reflect.DeepEqual(rs.opps, fs.opps) {
			t.Logf("reset SetOPP diverges:\nrecycled: %v\nfresh:    %v", rs.opps, fs.opps)
			return false
		}
		if !reflect.DeepEqual(rt.decisions, ft.decisions) {
			t.Logf("reset decisions diverge")
			return false
		}
		if !reflect.DeepEqual(recycled.PredStats(), fresh.PredStats()) {
			t.Logf("reset pred stats diverge:\nrecycled: %+v\nfresh:    %+v", recycled.PredStats(), fresh.PredStats())
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

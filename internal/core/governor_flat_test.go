package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"videodvfs/internal/cpu"
	"videodvfs/internal/sim"
	"videodvfs/internal/trace"
	"videodvfs/internal/video"
)

// The flat decision path (precomputed frequency column + budget table) must
// be pointwise equivalent to the original predict → slack → OPP pick it
// replaced. decodeStartLegacy is that original path, kept semantically
// frozen here as the oracle; the property tests below drive both paths
// through identical randomized scenarios — random device tables, predictor
// states, buffer depths, slack values, playback-state interleavings — and
// require bit-identical decisions, trace events, and counters.

// decodeStartLegacy is the pre-flattening DecodeStart, retained verbatim
// as the oracle for the flat-table equivalence property tests. It must stay
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
			ready:    r.Intn(12) - 1,                                             // −1 exercises the out-of-table fallback
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
	g.StreamInfo(sc.fps, len(sc.steps))

	now := sim.Time(0)
	frame := 0
	var prev video.Frame
	havePrev := false
	for _, st := range sc.steps {
		now += sim.Millisecond
		switch st.op {
		case 0:
			if st.endFirst && havePrev {
				g.DecodeEnd(now, prev, now, st.cycles)
				havePrev = false
			}
			f := video.Frame{Index: frame, Type: st.ftype}
			frame++
			if legacy {
				decodeStartLegacy(g, now, f, now+st.slack, st.ready, st.queueCap)
			} else {
				g.DecodeStart(now, f, now+st.slack, st.ready, st.queueCap)
			}
			prev, havePrev = f, true
		case 1:
			g.PlaybackState(now, st.flag)
		case 2:
			g.DownloadActivity(now, st.flag)
		case 3:
			g.DecoderIdle(now)
		}
	}
	return scaler, tr, g
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

// TestFlatBudgetEquivalence checks the budget stage alone, pointwise:
// flatBudget (table lookup + fallbacks) must equal budgetFor for random
// slack/ready/queueCap/period tuples, including queue-capacity changes that
// force table rebuilds mid-sequence.
func TestFlatBudgetEquivalence(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.TargetQueueFrac = 0.05 + r.Float64()*0.95
		cfg.SprintFrames = 0.05 + r.Float64()*0.95
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			slack := sim.Time(r.Float64() * 0.2 * float64(sim.Second))
			if slack == 0 {
				slack = sim.Millisecond
			}
			ready := r.Intn(20) - 2
			queueCap := r.Intn(16) // includes 0: the n<1 guard
			if r.Intn(3) == 0 {
				g.period = 0
			} else {
				g.period = sim.Time(1 / []float64{24, 30, 60}[r.Intn(3)])
			}
			got := g.flatBudget(slack, ready, queueCap)
			want := budgetFor(slack, ready, queueCap, g.period, cfg.TargetQueueFrac, cfg.SprintFrames)
			if got != want && !(math.IsNaN(float64(got)) && math.IsNaN(float64(want))) {
				t.Logf("flatBudget(%v, %d, %d, period=%v) = %v, budgetFor = %v",
					slack, ready, queueCap, g.period, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestFlatFreqScanEquivalence checks the OPP pick alone: the inline scan
// over the flat frequency column must match Model.IdxForFreq for every
// need value, including the non-finite ones a degenerate budget produces.
func TestFlatFreqScanEquivalence(t *testing.T) {
	prop := func(sc flatScenario) bool {
		needs := []float64{0, -1, 1, math.NaN(), math.Inf(1), math.Inf(-1),
			sc.model.Fmin(), sc.model.Fmax(), sc.model.Fmax() + 1, sc.model.Fmin() - 1}
		for _, o := range sc.model.OPPs {
			needs = append(needs, o.FreqHz, o.FreqHz*0.999, o.FreqHz*1.001)
		}
		g, err := New(sc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.AttachScaler(nil, &recordScaler{model: sc.model}); err != nil {
			t.Fatal(err)
		}
		for _, need := range needs {
			idx := g.flatMaxIdx
			for i, hz := range g.flatFreqs {
				if hz >= need {
					idx = i
					break
				}
			}
			if want := sc.model.IdxForFreq(need); idx != want {
				t.Logf("flat scan(%v) = %d, IdxForFreq = %d", need, idx, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
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

package experiments

import (
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"math"
	"strconv"
	"sync"

	"videodvfs/internal/cpu"
	"videodvfs/internal/sim"
)

// CanonicalConfig serializes every result-determining field of cfg into a
// deterministic byte string, the preimage of the result cache's
// content-addressed key. Two configs produce the same bytes iff Run would
// produce the same result for both, so canonical bytes — not Go equality —
// define cache identity.
//
// The encoding rules (DESIGN.md §9):
//
//   - one "key=value\n" line per field, in RunConfig declaration order;
//   - floats (and sim.Time, as seconds) use strconv 'g'/-1/64 — the
//     shortest round-trip form, matching the trace sinks — so equal
//     float64 values always encode identically;
//   - bools encode as 0/1, enums as their integer value;
//   - composite fields (Device, Policy, RRC, Thermal) are expanded
//     in-line field by field: the device is identified by its full OPP
//     table, not its name, so a custom model never collides with a
//     built-in one sharing the name;
//   - nil-able fields encode the empty string when unset, so "unset" and
//     any set value never collide.
//
// The second return is false when the config is uncacheable: a frame
// Trace (content not worth hashing frame-by-frame), an OnSample callback,
// a Tracer, or a Cancel channel make the run's observable behavior depend
// on state outside the config. Strict runs are also uncacheable by
// design: the point of ?strict=1 is to re-execute and re-audit the
// simulation — a cache hit would return a result no checker ever rode
// along on (DESIGN.md §10).
func CanonicalConfig(cfg RunConfig) ([]byte, bool) {
	if !cacheable(cfg) {
		return nil, false
	}
	return appendRest(appendDevice(make([]byte, 0, 512), cfg.Device), cfg), true
}

// ConfigKey returns the hex SHA-256 of cfg's canonical serialization —
// the content-addressed identity a result cache stores runs under. The
// second return is false for uncacheable configs (see CanonicalConfig).
//
// A built-in device's lines are not formatted or hashed again: when
// cfg.Device equals a built-in model bit for bit (builtinStateOf), the
// hash resumes from the state saved after absorbing that model's lines
// and takes only the lines after the device, so the sum is the one
// sha256.Sum256 gives over CanonicalConfig's bytes.
func ConfigKey(cfg RunConfig) (string, bool) {
	if !cacheable(cfg) {
		return "", false
	}
	h := sha256.New()
	// 1 KiB holds the lines after the device of the default config (565
	// bytes) and of its sweep points; longer lines grow the slice.
	b := make([]byte, 0, 1024)
	if state := builtinStateOf(cfg.Device); state != nil {
		if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
			panic("experiments: restore SHA-256 state: " + err.Error())
		}
	} else {
		b = appendDevice(b, cfg.Device)
	}
	h.Write(appendRest(b, cfg))
	return hex.EncodeToString(h.Sum(nil)), true
}

// cacheable reports whether cfg's result is a function of its fields
// alone (see CanonicalConfig for the exclusions).
func cacheable(cfg RunConfig) bool {
	return cfg.Trace == nil && cfg.OnSample == nil && cfg.Tracer == nil && !cfg.Strict && cfg.Cancel == nil
}

// builtinState is one built-in device model and the SHA-256 state after
// absorbing its canonical lines.
type builtinState struct {
	model cpu.Model
	state []byte
}

// builtinStates holds the state of every model cpu.Devices returns, built
// on the first key the process computes. The models are private copies:
// nothing outside can edit the tables they were formatted from.
var builtinStates = sync.OnceValue(func() []builtinState {
	devs := cpu.Devices()
	out := make([]builtinState, len(devs))
	for i, m := range devs {
		h := sha256.New()
		h.Write(appendDevice(nil, m))
		state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			panic("experiments: save SHA-256 state: " + err.Error())
		}
		out[i] = builtinState{model: m, state: state}
	}
	return out
})

// builtinStateOf returns the saved state of the built-in model m equals
// bit for bit, or nil. Floats compare by their bits, not by ==, so -0,
// NaN payloads and one-ulp edits fall through to inline formatting; a
// match therefore formats to exactly the lines the state absorbed.
func builtinStateOf(m cpu.Model) []byte {
	for _, b := range builtinStates() {
		if sameModelBits(b.model, m) {
			return b.state
		}
	}
	return nil
}

// sameModelBits reports whether a and b have the same name and the same
// bits in TransitionLatency and every OPP field.
func sameModelBits(a, b cpu.Model) bool {
	if a.Name != b.Name || len(a.OPPs) != len(b.OPPs) ||
		math.Float64bits(float64(a.TransitionLatency)) != math.Float64bits(float64(b.TransitionLatency)) {
		return false
	}
	for i, x := range a.OPPs {
		y := b.OPPs[i]
		if math.Float64bits(x.FreqHz) != math.Float64bits(y.FreqHz) ||
			math.Float64bits(x.VoltageV) != math.Float64bits(y.VoltageV) ||
			math.Float64bits(x.ActiveW) != math.Float64bits(y.ActiveW) ||
			math.Float64bits(x.IdleW) != math.Float64bits(y.IdleW) {
			return false
		}
	}
	return true
}

// canon is a canonical form being written. str, flt, dur, num and boo
// each append one "key=value\n" line; key and keyAt write a key, and
// fltValue and numValue a value and the newline. Each returns the longer
// slice, as append does.
type canon []byte

func (c canon) key(key string) canon { return append(append(c, key...), '=') }

// keyAt writes the key prefix<i>suffix, as in "device.opp3.freq".
func (c canon) keyAt(prefix string, i int, suffix string) canon {
	c = strconv.AppendInt(append(c, prefix...), int64(i), 10)
	return append(append(c, suffix...), '=')
}

// fltValue and numValue write a line's value and end it.
func (c canon) fltValue(v float64) canon { return append(strconv.AppendFloat(c, v, 'g', -1, 64), '\n') }
func (c canon) numValue(v int64) canon   { return append(strconv.AppendInt(c, v, 10), '\n') }

func (c canon) str(key, v string) canon          { return append(append(c.key(key), v...), '\n') }
func (c canon) flt(key string, v float64) canon  { return c.key(key).fltValue(v) }
func (c canon) dur(key string, v sim.Time) canon { return c.flt(key, v.Seconds()) }
func (c canon) num(key string, v int64) canon    { return c.key(key).numValue(v) }

func (c canon) boo(key string, v bool) canon {
	n := int64(0)
	if v {
		n = 1
	}
	return c.num(key, n)
}

// appendDevice appends the device lines that open every canonical form.
// It is the one encoder of a device, whether its lines are hashed once
// into a built-in's saved state or formatted for each key.
func appendDevice(b []byte, m cpu.Model) []byte {
	c := canon(b)
	c = c.str("device.name", m.Name)
	c = c.dur("device.latency", m.TransitionLatency)
	c = c.num("device.opps", int64(len(m.OPPs)))
	for i, o := range m.OPPs {
		c = c.keyAt("device.opp", i, ".freq").fltValue(o.FreqHz)
		c = c.keyAt("device.opp", i, ".volt").fltValue(o.VoltageV)
		c = c.keyAt("device.opp", i, ".active").fltValue(o.ActiveW)
		c = c.keyAt("device.opp", i, ".idle").fltValue(o.IdleW)
	}
	return c
}

// appendRest appends every line after the device lines.
func appendRest(b []byte, cfg RunConfig) []byte {
	c := canon(b)
	c = c.str("governor", string(cfg.Governor))
	c = c.flt("policy.margin", cfg.Policy.Margin)
	c = c.flt("policy.sigmak", cfg.Policy.SigmaK)
	c = c.flt("policy.alpha", cfg.Policy.Alpha)
	c = c.num("policy.predictor", int64(cfg.Policy.Predictor))
	c = c.dur("policy.guard", cfg.Policy.Guard)
	c = c.flt("policy.targetqueue", cfg.Policy.TargetQueueFrac)
	c = c.flt("policy.sprint", cfg.Policy.SprintFrames)
	c = c.boo("policy.racetoidle", cfg.Policy.RaceToIdle)
	c = c.boo("policy.startupboost", cfg.Policy.StartupBoost)
	c = c.num("policy.minopp", int64(cfg.Policy.MinOPP))
	c = c.str("title.name", cfg.Title.Name)
	c = c.flt("title.complexity", cfg.Title.Complexity)
	c = c.dur("title.scenedur", cfg.Title.SceneMeanDur)
	c = c.flt("title.scenecv", cfg.Title.SceneCV)
	c = c.str("rung.name", cfg.Rung.Name)
	c = c.num("rung.w", int64(cfg.Rung.Width))
	c = c.num("rung.h", int64(cfg.Rung.Height))
	c = c.str("abr", string(cfg.ABR))
	c = c.str("net", string(cfg.Net))
	// A recorded bandwidth trace IS config, unlike a frame Trace: it is
	// small (one sample per transfer chunk), fully determines replay, and
	// hashing it keeps trace-backed runs cacheable — the fleet shards
	// them by this key like any other config.
	if cfg.BWTrace == nil {
		c = c.str("bwtrace", "")
	} else {
		c = c.num("bwtrace.samples", int64(len(cfg.BWTrace.Samples)))
		for i, s := range cfg.BWTrace.Samples {
			c = c.keyAt("bwtrace.", i, ".t0").fltValue(s.Start.Seconds())
			c = c.keyAt("bwtrace.", i, ".t1").fltValue(s.End.Seconds())
			c = c.keyAt("bwtrace.", i, ".bytes").fltValue(s.Bytes)
			c = c.keyAt("bwtrace.", i, ".fetch").numValue(int64(s.Fetch))
		}
	}
	if cfg.RRC == nil {
		c = c.str("rrc", "")
	} else {
		c = c.flt("rrc.idlew", cfg.RRC.IdleW)
		c = c.flt("rrc.fachw", cfg.RRC.FACHW)
		c = c.flt("rrc.dchw", cfg.RRC.DCHW)
		c = c.flt("rrc.txw", cfg.RRC.TxExtraW)
		c = c.dur("rrc.t1", cfg.RRC.T1)
		c = c.dur("rrc.t2", cfg.RRC.T2)
		c = c.dur("rrc.promoidle", cfg.RRC.PromoIdle)
		c = c.dur("rrc.promofach", cfg.RRC.PromoFACH)
		c = c.boo("rrc.fastdormancy", cfg.RRC.FastDormancy)
	}
	c = c.dur("duration", cfg.Duration)
	c = c.num("seed", cfg.Seed)
	c = c.num("bgseed", cfg.BGSeed)
	c = c.num("decodedqueuecap", int64(cfg.DecodedQueueCap))
	c = c.flt("lowwatersec", cfg.LowWaterSec)
	if cfg.Thermal == nil {
		c = c.str("thermal", "")
	} else {
		c = c.flt("thermal.ambient", cfg.Thermal.AmbientC)
		c = c.flt("thermal.rth", cfg.Thermal.RthCPerW)
		c = c.dur("thermal.tau", cfg.Thermal.Tau)
		c = c.flt("thermal.trip", cfg.Thermal.TripC)
		c = c.flt("thermal.hyst", cfg.Thermal.HystC)
		c = c.dur("thermal.sample", cfg.Thermal.Sample)
		c = c.flt("thermal.initial", cfg.Thermal.InitialC)
	}
	c = c.boo("cstates", cfg.CStates)
	c = c.str("codec", cfg.Codec)
	c = c.boo("lowlatency", cfg.LowLatency)
	c = c.dur("segmentdur", cfg.SegmentDur)
	c = c.boo("background", cfg.Background)
	c = c.dur("horizon", cfg.Horizon)
	c = c.flt("fps", cfg.FPS)
	// The noisy forecast is seeded and keyed per piece, so forecast-armed
	// runs — noisy included — are deterministic functions of these fields
	// and stay cacheable.
	c = c.str("forecast", string(cfg.Forecast))
	c = c.dur("forecast.lookahead", cfg.ForecastLookahead)
	c = c.flt("forecast.relerr", cfg.ForecastRelErr)
	c = c.num("forecast.seed", cfg.ForecastSeed)
	return c
}

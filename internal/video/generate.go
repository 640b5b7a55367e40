package video

import (
	"fmt"
	"math"
	"strings"

	"videodvfs/internal/sim"
)

// Title is a content profile: how demanding and how variable the material
// is. The multipliers modulate the codec model's baseline.
type Title struct {
	// Name identifies the profile in reports.
	Name string
	// Complexity scales both bits and cycles (motion/detail level).
	Complexity float64
	// SceneMeanDur is the mean scene length; scenes redraw the
	// complexity drift (exponential durations).
	SceneMeanDur sim.Time
	// SceneCV is the lognormal CV of per-scene complexity drift.
	SceneCV float64
}

// Built-in content profiles used across the evaluation.
var (
	// TitleNews is static, talking-head content.
	TitleNews = Title{Name: "news", Complexity: 0.85, SceneMeanDur: 8 * sim.Second, SceneCV: 0.15}
	// TitleSports is fast-motion content with frequent scene changes.
	// Complexity is calibrated so the hottest scenes stay decodable at
	// the flagship's fmax at 1080p30 (real encoders cap bitrate the same
	// way for target devices).
	TitleSports = Title{Name: "sports", Complexity: 1.10, SceneMeanDur: 3 * sim.Second, SceneCV: 0.22}
	// TitleAnimation is flat-shaded content with moderate variation.
	TitleAnimation = Title{Name: "animation", Complexity: 0.95, SceneMeanDur: 5 * sim.Second, SceneCV: 0.22}
)

// Titles returns all built-in content profiles.
func Titles() []Title { return []Title{TitleNews, TitleSports, TitleAnimation} }

// TitleByName returns a built-in title by name.
func TitleByName(name string) (Title, error) {
	for _, t := range Titles() {
		if t.Name == name {
			return t, nil
		}
	}
	return Title{}, fmt.Errorf("video: unknown title %q", name)
}

// Spec is the recipe for generating one stream rendition.
type Spec struct {
	// Title is the content profile.
	Title Title
	// Res is the frame size.
	Res Resolution
	// FPS is the frame rate.
	FPS float64
	// BitrateBps is the average coded rate.
	BitrateBps float64
	// GOP is the group-of-pictures pattern, e.g. "IBBPBBPBBPBB". It must
	// start with 'I' and contain only I/P/B.
	GOP string
	// Codec carries the complexity coefficients.
	Codec Codec
}

// DefaultSpec returns a 30 fps rendition of the given title and resolution
// at the default ladder bitrate with a 12-frame GOP.
func DefaultSpec(title Title, res Resolution) Spec {
	return Spec{
		Title:      title,
		Res:        res,
		FPS:        30,
		BitrateBps: DefaultBitrate(res),
		GOP:        "IBBPBBPBBPBB",
		Codec:      DefaultCodec(),
	}
}

// WithCodec returns the spec re-targeted at the given codec: the codec's
// coefficients replace the current ones and the bitrate is scaled by the
// codec's equal-quality rate factor (HEVC ladders run ≈60% of H.264's).
func (s Spec) WithCodec(c Codec) Spec {
	out := s
	out.Codec = c
	out.BitrateBps = s.BitrateBps * c.RateFactor
	return out
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if !(s.FPS > 0) || math.IsInf(s.FPS, 1) {
		return fmt.Errorf("spec: fps %v not finite and positive", s.FPS)
	}
	if s.BitrateBps <= 0 {
		return fmt.Errorf("spec: bitrate %v not positive", s.BitrateBps)
	}
	if s.Res.Width <= 0 || s.Res.Height <= 0 {
		return fmt.Errorf("spec: resolution %dx%d invalid", s.Res.Width, s.Res.Height)
	}
	if len(s.GOP) == 0 || s.GOP[0] != 'I' {
		return fmt.Errorf("spec: GOP %q must start with I", s.GOP)
	}
	if strings.Trim(s.GOP, "IPB") != "" {
		return fmt.Errorf("spec: GOP %q contains letters outside IPB", s.GOP)
	}
	if s.Title.Complexity <= 0 {
		return fmt.Errorf("spec: title complexity %v not positive", s.Title.Complexity)
	}
	if s.Title.SceneMeanDur <= 0 {
		return fmt.Errorf("spec: scene duration %v not positive", s.Title.SceneMeanDur)
	}
	return s.Codec.Validate()
}

// gopTypes expands the GOP pattern into frame types.
func (s Spec) gopTypes() []FrameType {
	out := make([]FrameType, len(s.GOP))
	for i, ch := range s.GOP {
		switch ch {
		case 'I':
			out[i] = FrameI
		case 'P':
			out[i] = FrameP
		default:
			out[i] = FrameB
		}
	}
	return out
}

// meanBitsForType returns the expected coded size of a frame of type t so
// that the GOP's total matches the bitrate budget under the codec's type
// weights.
func (s Spec) meanBitsForType(c Codec, t FrameType) float64 {
	types := s.gopTypes()
	var weightSum float64
	for _, ft := range types {
		weightSum += c.TypeBitWeight[ft]
	}
	gopBits := s.BitrateBps * float64(len(types)) / s.FPS
	return gopBits * c.TypeBitWeight[t] / weightSum
}

// meanBitsTable precomputes meanBitsForType for every frame type, so the
// per-frame generation loop does not re-expand the GOP pattern. Entries
// are computed by the exact same expression as meanBitsForType, keeping
// generated streams bit-identical.
func (s Spec) meanBitsTable(c Codec) [FrameB + 1]float64 {
	var out [FrameB + 1]float64
	for t := FrameI; t <= FrameB; t++ {
		out[t] = s.meanBitsForType(c, t)
	}
	return out
}

// MaxDuration is the longest content Generate synthesizes, and so the
// longest run the simulator accepts (experiments.RunConfig.Validate): 24 h,
// against the 5 min the longest experiment simulates. A 24 h rendition at
// 30 fps is 2.6 M frames, about 100 MB; a longer request fails at once
// instead of generating until memory runs out.
const MaxDuration = 24 * 60 * sim.Minute

// sceneTrack precomputes per-scene complexity multipliers so that aligned
// ladder renditions share identical scene structure.
type sceneTrack struct {
	ends  []sim.Time
	mults []float64
	cur   int // multAt's cursor: the scene the last query fell in
}

func newSceneTrack(title Title, dur sim.Time, rng *sim.RNG) sceneTrack {
	var tr sceneTrack
	var at sim.Time
	for at < dur {
		length := sim.Time(rng.Exp(title.SceneMeanDur.Seconds()))
		if length < 500*sim.Millisecond {
			length = 500 * sim.Millisecond
		}
		at += length
		tr.ends = append(tr.ends, at)
		// Cap scene drift: encoders rate-control away extremes, and the
		// target-device decode budget must stay feasible at fmax.
		mult := rng.LognormalMeanCV(1, title.SceneCV)
		if mult > 1.45 {
			mult = 1.45
		}
		tr.mults = append(tr.mults, mult)
	}
	return tr
}

// multAt returns the multiplier of the first scene ending after t. Queries
// must come in non-decreasing t, as Generate's frame PTS do: the track
// walks its scenes with a cursor, so a stream costs one pass over them.
func (tr *sceneTrack) multAt(t sim.Time) float64 {
	for tr.cur < len(tr.ends) && t >= tr.ends[tr.cur] {
		tr.cur++
	}
	if tr.cur < len(tr.mults) {
		return tr.mults[tr.cur]
	}
	if len(tr.mults) == 0 {
		return 1
	}
	return tr.mults[len(tr.mults)-1]
}

// Generate synthesizes a stream of the given duration. The same (spec,
// seed) pair always yields the same stream.
func Generate(spec Spec, dur sim.Time, seed int64) (*Stream, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if !(dur > 0) || math.IsInf(float64(dur), 1) {
		return nil, fmt.Errorf("video: duration %v s not finite and positive", float64(dur))
	}
	if dur > MaxDuration {
		return nil, fmt.Errorf("video: duration %v s longer than the %v s cap", dur.Seconds(), MaxDuration.Seconds())
	}
	// float64(math.MaxInt) rounds up to 2^63, so any count below it
	// converts to an int exactly.
	count := dur.Seconds() * spec.FPS
	if !(count < math.MaxInt) {
		return nil, fmt.Errorf("video: %v s at %v fps is %v frames, more than an int holds",
			dur.Seconds(), spec.FPS, count)
	}
	sceneRNG := sim.Stream(seed, "scenes/"+spec.Title.Name)
	frameRNG := sim.Stream(seed, fmt.Sprintf("frames/%s/%s/%.0f", spec.Title.Name, spec.Res.Name, spec.BitrateBps))
	scenes := newSceneTrack(spec.Title, dur, sceneRNG)

	n := int(count)
	types := spec.gopTypes()
	meanBits := spec.meanBitsTable(spec.Codec)
	frames := make([]Frame, 0, n)
	for i := 0; i < n; i++ {
		t := types[i%len(types)]
		pts := sim.Time(float64(i) / spec.FPS)
		drift := spec.Title.Complexity * scenes.multAt(pts)
		bits := meanBits[t] * drift * frameRNG.LognormalMeanCV(1, spec.Codec.JitterCV)
		cycles := (spec.Codec.PixelCycles*spec.Res.Pixels() + spec.Codec.BitCycles*bits) *
			spec.Codec.TypeCycleMult[t] * drift * frameRNG.LognormalMeanCV(1, spec.Codec.JitterCV/2)
		frames = append(frames, Frame{Index: i, Type: t, PTS: pts, Bits: bits, Cycles: cycles})
	}
	return &Stream{Spec: spec, Frames: frames}, nil
}

// Rung is one rendition in a bitrate ladder.
type Rung struct {
	// Res is the rendition's resolution.
	Res Resolution
	// BitrateBps is the rendition's average rate.
	BitrateBps float64
}

// DefaultLadder returns the standard 4-rung DASH-style ladder.
func DefaultLadder() []Rung {
	rs := Resolutions()
	out := make([]Rung, len(rs))
	for i, r := range rs {
		out[i] = Rung{Res: r, BitrateBps: DefaultBitrate(r)}
	}
	return out
}

// GenerateLadder synthesizes scene-aligned renditions of the same content
// at every rung: all renditions share the scene structure (same seed and
// title), differing only in resolution/bitrate and per-frame jitter, as
// real ABR ladders do.
func GenerateLadder(title Title, fps float64, ladder []Rung, dur sim.Time, seed int64) ([]*Stream, error) {
	if len(ladder) == 0 {
		return nil, fmt.Errorf("video: empty ladder")
	}
	out := make([]*Stream, 0, len(ladder))
	for _, rung := range ladder {
		spec := DefaultSpec(title, rung.Res)
		spec.FPS = fps
		spec.BitrateBps = rung.BitrateBps
		s, err := Generate(spec, dur, seed)
		if err != nil {
			return nil, fmt.Errorf("rung %s: %w", rung.Res.Name, err)
		}
		out = append(out, s)
	}
	return out, nil
}

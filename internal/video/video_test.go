package video

import (
	"bytes"
	"math"
	"testing"
	"time"

	"videodvfs/internal/sim"
)

func genOrFatal(t *testing.T, spec Spec, dur sim.Time, seed int64) *Stream {
	t.Helper()
	s, err := Generate(spec, dur, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGenerateDeterministic(t *testing.T) {
	spec := DefaultSpec(TitleSports, R720p)
	a := genOrFatal(t, spec, 10*sim.Second, 42)
	b := genOrFatal(t, spec, 10*sim.Second, 42)
	if len(a.Frames) != len(b.Frames) {
		t.Fatal("lengths differ")
	}
	for i := range a.Frames {
		if a.Frames[i] != b.Frames[i] {
			t.Fatalf("frame %d differs between identical seeds", i)
		}
	}
	c := genOrFatal(t, spec, 10*sim.Second, 43)
	same := true
	for i := range a.Frames {
		if a.Frames[i].Cycles != c.Frames[i].Cycles {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestGenerateFrameCountAndPTS(t *testing.T) {
	spec := DefaultSpec(TitleNews, R480p)
	s := genOrFatal(t, spec, 10*sim.Second, 1)
	if len(s.Frames) != 300 {
		t.Fatalf("frame count = %d, want 300", len(s.Frames))
	}
	for i, f := range s.Frames {
		if f.Index != i {
			t.Fatalf("frame %d has index %d", i, f.Index)
		}
		want := sim.Time(float64(i) / 30)
		if math.Abs(float64(f.PTS-want)) > 1e-12 {
			t.Fatalf("frame %d PTS = %v, want %v", i, f.PTS, want)
		}
		if f.Bits <= 0 || f.Cycles <= 0 {
			t.Fatalf("frame %d has non-positive demand: %+v", i, f)
		}
	}
	if got := s.Duration(); math.Abs(float64(got-10*sim.Second)) > 1e-9 {
		t.Fatalf("Duration = %v, want 10s", got)
	}
}

func TestGOPStructure(t *testing.T) {
	spec := DefaultSpec(TitleNews, R360p)
	s := genOrFatal(t, spec, 4*sim.Second, 1)
	pattern := spec.gopTypes()
	for i, f := range s.Frames {
		if f.Type != pattern[i%len(pattern)] {
			t.Fatalf("frame %d type %v, want %v", i, f.Type, pattern[i%len(pattern)])
		}
	}
	counts := s.CountByType()
	if counts[FrameI] == 0 || counts[FrameP] == 0 || counts[FrameB] == 0 {
		t.Fatalf("missing frame types: %v", counts)
	}
	// IBBPBBPBBPBB: 1 I, 3 P, 8 B per 12 frames.
	if counts[FrameB] <= counts[FrameP] || counts[FrameP] <= counts[FrameI] {
		t.Fatalf("type proportions wrong: %v", counts)
	}
}

func TestBitrateBudgetRespected(t *testing.T) {
	for _, res := range Resolutions() {
		spec := DefaultSpec(TitleNews, res)
		spec.Title.SceneCV = 0 // isolate the budget from drift
		spec.Title.Complexity = 1
		spec.Codec.JitterCV = 0
		s := genOrFatal(t, spec, 60*sim.Second, 7)
		gotRate := s.TotalBits() / s.Duration().Seconds()
		if math.Abs(gotRate-spec.BitrateBps) > 0.02*spec.BitrateBps {
			t.Errorf("%s: rate %.0f, want ≈ %.0f", res.Name, gotRate, spec.BitrateBps)
		}
	}
}

func TestIFramesLargerThanPThanB(t *testing.T) {
	spec := DefaultSpec(TitleNews, R720p)
	spec.Codec.JitterCV = 0
	spec.Title.SceneCV = 0
	s := genOrFatal(t, spec, 10*sim.Second, 3)
	var bitsByType [4]float64
	var nByType [4]int
	for _, f := range s.Frames {
		bitsByType[f.Type] += f.Bits
		nByType[f.Type]++
	}
	meanI := bitsByType[FrameI] / float64(nByType[FrameI])
	meanP := bitsByType[FrameP] / float64(nByType[FrameP])
	meanB := bitsByType[FrameB] / float64(nByType[FrameB])
	if !(meanI > meanP && meanP > meanB) {
		t.Fatalf("frame size ordering wrong: I=%.0f P=%.0f B=%.0f", meanI, meanP, meanB)
	}
}

func TestCalibratedCycleMeans(t *testing.T) {
	// The decode demand must land in the published software-decode range
	// so that min-frequency requirements are realistic.
	wants := map[string][2]float64{
		"360p":  {2.5e6, 6.5e6},
		"480p":  {5e6, 11e6},
		"720p":  {12e6, 26e6},
		"1080p": {28e6, 52e6},
	}
	for _, res := range Resolutions() {
		spec := DefaultSpec(TitleNews, res)
		spec.Title = Title{Name: "flat", Complexity: 1, SceneMeanDur: 8 * sim.Second, SceneCV: 0}
		s := genOrFatal(t, spec, 30*sim.Second, 11)
		m := s.MeanCycles()
		w := wants[res.Name]
		if m < w[0] || m > w[1] {
			t.Errorf("%s mean cycles %.2g outside calibrated [%.2g, %.2g]", res.Name, m, w[0], w[1])
		}
	}
}

func TestSustainedHz(t *testing.T) {
	spec := DefaultSpec(TitleNews, R720p)
	s := genOrFatal(t, spec, 10*sim.Second, 5)
	want := s.MeanCycles() * 30
	if math.Abs(s.SustainedHz()-want) > 1e-6*want {
		t.Fatalf("SustainedHz = %v, want %v", s.SustainedHz(), want)
	}
}

func TestSportsMoreDemandingThanNews(t *testing.T) {
	news := genOrFatal(t, DefaultSpec(TitleNews, R720p), 30*sim.Second, 9)
	sports := genOrFatal(t, DefaultSpec(TitleSports, R720p), 30*sim.Second, 9)
	if sports.MeanCycles() <= news.MeanCycles() {
		t.Fatalf("sports (%.3g) should out-demand news (%.3g)", sports.MeanCycles(), news.MeanCycles())
	}
}

func TestSpecValidation(t *testing.T) {
	good := DefaultSpec(TitleNews, R360p)
	if err := good.Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
	cases := []func(*Spec){
		func(s *Spec) { s.FPS = 0 },
		func(s *Spec) { s.FPS = math.NaN() },
		func(s *Spec) { s.FPS = math.Inf(1) },
		func(s *Spec) { s.BitrateBps = -1 },
		func(s *Spec) { s.Res.Width = 0 },
		func(s *Spec) { s.GOP = "PBB" },
		func(s *Spec) { s.GOP = "IXP" },
		func(s *Spec) { s.GOP = "" },
		func(s *Spec) { s.Title.Complexity = 0 },
		func(s *Spec) { s.Title.SceneMeanDur = 0 },
		func(s *Spec) { s.Codec.PixelCycles = 0 },
	}
	for i, mutate := range cases {
		s := DefaultSpec(TitleNews, R360p)
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

func TestGenerateRejectsBadInputs(t *testing.T) {
	if _, err := Generate(DefaultSpec(TitleNews, R360p), 0, 1); err == nil {
		t.Fatal("want error for zero duration")
	}
	bad := DefaultSpec(TitleNews, R360p)
	bad.FPS = -1
	if _, err := Generate(bad, sim.Second, 1); err == nil {
		t.Fatal("want error for invalid spec")
	}
}

// within runs f on its own goroutine and fails the test if f has not
// returned after d, so an input that hangs a generator fails the test
// instead of stalling the suite.
func within(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("still running after %v", d)
	}
}

// Non-finite lengths passed Generate's positive-duration check: NaN
// panicked in make, +Inf never left the scene track, and a finite frame
// count past an int converted to garbage. A finite duration past
// MaxDuration generated until memory ran out, and so did a high frame
// rate within it. Each is an error now.
func TestGenerateRejectsNonFiniteLengths(t *testing.T) {
	spec := func(fps float64) Spec {
		s := DefaultSpec(TitleNews, R360p)
		s.FPS = fps
		return s
	}
	cases := []struct {
		name string
		spec Spec
		dur  sim.Time
	}{
		{"NaN duration", spec(30), sim.Time(math.NaN())},
		{"+Inf duration", spec(30), sim.Time(math.Inf(1))},
		{"NaN fps", spec(math.NaN()), sim.Second},
		{"+Inf fps", spec(math.Inf(1)), sim.Second},
		{"frame count past int", spec(1e300), sim.Second},
		{"one second past MaxDuration", spec(30), MaxDuration + sim.Second},
		// 81,000 s at 32 fps is MaxFrames exactly; 1/32 s more is one
		// frame past it, inside MaxDuration.
		{"one frame past MaxFrames", spec(32), sim.Time(81000+1.0/32) * sim.Second},
		{"1000 fps over MaxDuration", spec(1000), MaxDuration},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			within(t, 2*time.Second, func() { _, err = Generate(tc.spec, tc.dur, 1) })
			if err == nil {
				t.Fatal("want an error")
			}
		})
	}
}

// multAt walks the scenes with a cursor, which relies on Generate's
// monotone PTS; the rescan it replaced returned the multiplier of the
// first scene ending after t. The two agree at every frame time, and past
// the last scene, for each title at several lengths.
func TestSceneCursorMatchesRescan(t *testing.T) {
	rescan := func(tr sceneTrack, at sim.Time) float64 {
		for i, end := range tr.ends {
			if at < end {
				return tr.mults[i]
			}
		}
		if len(tr.mults) == 0 {
			return 1
		}
		return tr.mults[len(tr.mults)-1]
	}
	for _, title := range Titles() {
		for _, dur := range []sim.Time{400 * sim.Millisecond, 10 * sim.Second, 5 * sim.Minute, 30 * sim.Minute} {
			tr := newSceneTrack(title, dur, sim.Stream(7, "scenes/"+title.Name))
			ref := tr
			n := int((tr.ends[len(tr.ends)-1] + sim.Second).Seconds() * 30) // one second past the last scene
			for i := 0; i < n; i++ {
				pts := sim.Time(float64(i) / 30)
				if got, want := tr.multAt(pts), rescan(ref, pts); got != want {
					t.Fatalf("%s, %v: multAt(%v) = %v, rescan %v", title.Name, dur, pts, got, want)
				}
			}
		}
	}
}

func TestLadderSceneAlignment(t *testing.T) {
	streams, err := GenerateLadder(TitleSports, 30, DefaultLadder(), 20*sim.Second, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 4 {
		t.Fatalf("ladder size = %d", len(streams))
	}
	// Scene alignment: per-frame demand across rungs should be strongly
	// correlated (same scenes), even though magnitudes differ.
	lo, hi := streams[0], streams[3]
	if hi.MeanCycles() <= lo.MeanCycles() {
		t.Fatal("higher rung should cost more cycles")
	}
	var num, dl, dh float64
	ml, mh := lo.MeanCycles(), hi.MeanCycles()
	for i := range lo.Frames {
		a := lo.Frames[i].Cycles - ml
		b := hi.Frames[i].Cycles - mh
		num += a * b
		dl += a * a
		dh += b * b
	}
	corr := num / math.Sqrt(dl*dh)
	if corr < 0.5 {
		t.Fatalf("ladder rungs uncorrelated (r=%.2f); scenes not aligned", corr)
	}
}

func TestGenerateLadderEmpty(t *testing.T) {
	if _, err := GenerateLadder(TitleNews, 30, nil, sim.Second, 1); err == nil {
		t.Fatal("want error for empty ladder")
	}
}

func TestSegmentize(t *testing.T) {
	spec := DefaultSpec(TitleNews, R480p)
	s := genOrFatal(t, spec, 10*sim.Second, 2)
	segs, err := Segmentize(s, 2*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 5 {
		t.Fatalf("segments = %d, want 5", len(segs))
	}
	totalFrames := 0
	var totalBits float64
	for i, seg := range segs {
		if seg.Index != i {
			t.Fatalf("segment %d has index %d", i, seg.Index)
		}
		if len(seg.Frames) != 60 {
			t.Fatalf("segment %d has %d frames, want 60", i, len(seg.Frames))
		}
		if math.Abs(float64(seg.Duration-2*sim.Second)) > 1e-9 {
			t.Fatalf("segment %d duration %v", i, seg.Duration)
		}
		totalFrames += len(seg.Frames)
		totalBits += seg.Bits
	}
	if totalFrames != len(s.Frames) {
		t.Fatalf("segments cover %d frames, stream has %d", totalFrames, len(s.Frames))
	}
	if math.Abs(totalBits-s.TotalBits()) > 1e-6 {
		t.Fatal("segment bits do not sum to stream bits")
	}
}

func TestSegmentizeShortTail(t *testing.T) {
	spec := DefaultSpec(TitleNews, R360p)
	s := genOrFatal(t, spec, 5*sim.Second, 2) // 150 frames
	segs, err := Segmentize(s, 2*sim.Second)  // 60-frame segments → 60/60/30
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 || len(segs[2].Frames) != 30 {
		t.Fatalf("tail segmentation wrong: %d segs, tail %d frames", len(segs), len(segs[len(segs)-1].Frames))
	}
}

func TestSegmentizeErrors(t *testing.T) {
	spec := DefaultSpec(TitleNews, R360p)
	s := genOrFatal(t, spec, sim.Second, 2)
	if _, err := Segmentize(s, 0); err == nil {
		t.Fatal("want error for zero segment duration")
	}
	if _, err := Segmentize(&Stream{Spec: spec}, sim.Second); err == nil {
		t.Fatal("want error for empty stream")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	spec := DefaultSpec(TitleSports, R720p)
	s := genOrFatal(t, spec, 3*sim.Second, 21)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Frames) != len(s.Frames) {
		t.Fatalf("round trip length %d, want %d", len(back.Frames), len(s.Frames))
	}
	for i := range s.Frames {
		if s.Frames[i] != back.Frames[i] {
			t.Fatalf("frame %d corrupted in round trip: %+v vs %+v", i, s.Frames[i], back.Frames[i])
		}
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	spec := DefaultSpec(TitleNews, R360p)
	cases := []string{
		"",
		"not,a,real,header,x\n",
		"index,type,pts_s,bits,cycles\n0,Q,0,100,100\n",
		"index,type,pts_s,bits,cycles\nx,I,0,100,100\n",
		"index,type,pts_s,bits,cycles\n0,I,zz,100,100\n",
	}
	for i, c := range cases {
		if _, err := ReadTrace(bytes.NewBufferString(c), spec); err == nil {
			t.Errorf("case %d: want parse error", i)
		}
	}
}

func TestFrameTypeParsing(t *testing.T) {
	for _, ft := range []FrameType{FrameI, FrameP, FrameB} {
		back, err := ParseFrameType(ft.String())
		if err != nil || back != ft {
			t.Fatalf("round trip %v failed: %v %v", ft, back, err)
		}
	}
	if FrameType(0).String() != "?" {
		t.Fatal("zero frame type should stringify as ?")
	}
	if _, err := ParseFrameType("Z"); err == nil {
		t.Fatal("want error for unknown type letter")
	}
}

func TestResolutionHelpers(t *testing.T) {
	r, err := ResolutionByName("720p")
	if err != nil || r.Width != 1280 {
		t.Fatalf("ResolutionByName: %v %v", r, err)
	}
	if _, err := ResolutionByName("9000p"); err == nil {
		t.Fatal("want error for unknown resolution")
	}
	if R1080p.Pixels() != 1920*1080 {
		t.Fatal("pixel math wrong")
	}
	if DefaultBitrate(Resolution{Name: "odd", Width: 1280, Height: 720}) != 4e6 {
		t.Fatal("fallback bitrate should scale from 720p")
	}
}

func TestTitleByName(t *testing.T) {
	for _, title := range Titles() {
		got, err := TitleByName(title.Name)
		if err != nil || got.Name != title.Name {
			t.Fatalf("TitleByName(%s): %v %v", title.Name, got, err)
		}
	}
	if _, err := TitleByName("nature"); err == nil {
		t.Fatal("want error for unknown title")
	}
}

func TestMeanFrameCyclesAnalytic(t *testing.T) {
	spec := DefaultSpec(TitleNews, R720p)
	c := spec.Codec
	for _, ft := range []FrameType{FrameI, FrameP, FrameB} {
		got := c.MeanFrameCycles(spec, ft)
		if got <= 0 {
			t.Fatalf("MeanFrameCycles(%v) = %v", ft, got)
		}
	}
	if !(c.MeanFrameCycles(spec, FrameI) > c.MeanFrameCycles(spec, FrameP)) {
		t.Fatal("I frames should cost more than P analytically")
	}
}

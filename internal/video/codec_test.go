package video

import (
	"testing"

	"videodvfs/internal/sim"
)

func TestCodecCatalog(t *testing.T) {
	cs := builtinCodecs
	if len(cs) != 2 {
		t.Fatalf("codecs = %d, want 2", len(cs))
	}
	for _, c := range cs {
		if err := c.Validate(); err != nil {
			t.Errorf("codec %q invalid: %v", c.Name, err)
		}
		back, err := CodecByName(c.Name)
		if err != nil || back.Name != c.Name {
			t.Errorf("CodecByName(%s): %v %v", c.Name, back.Name, err)
		}
	}
	if _, err := CodecByName("av1"); err == nil {
		t.Fatal("want error for unknown codec")
	}
}

func TestHEVCCoefficientsShape(t *testing.T) {
	h264, hevc := DefaultCodec(), HEVCCodec()
	if hevc.RateFactor >= h264.RateFactor {
		t.Fatal("HEVC must need fewer bits for equal quality")
	}
	if hevc.PixelCycles <= h264.PixelCycles || hevc.BitCycles <= h264.BitCycles {
		t.Fatal("HEVC decode must cost more per pixel and per bit")
	}
}

func TestWithCodecScalesBitrate(t *testing.T) {
	spec := DefaultSpec(TitleNews, R720p)
	hevc := spec.WithCodec(HEVCCodec())
	if hevc.Codec.Name != "hevc" {
		t.Fatalf("codec not applied: %s", hevc.Codec.Name)
	}
	want := spec.BitrateBps * HEVCCodec().RateFactor
	if hevc.BitrateBps != want {
		t.Fatalf("bitrate %v, want %v", hevc.BitrateBps, want)
	}
	// The original spec is unchanged (value semantics).
	if spec.Codec.Name != "h264" {
		t.Fatal("WithCodec mutated the receiver")
	}
}

func TestHEVCStreamTradesBitsForCycles(t *testing.T) {
	base := DefaultSpec(TitleNews, R720p)
	h264, err := Generate(base, 20*sim.Second, 5)
	if err != nil {
		t.Fatal(err)
	}
	hevc, err := Generate(base.WithCodec(HEVCCodec()), 20*sim.Second, 5)
	if err != nil {
		t.Fatal(err)
	}
	if hevc.TotalBits() >= h264.TotalBits()*0.75 {
		t.Fatalf("HEVC bits %.3g should be ≈60%% of H.264's %.3g", hevc.TotalBits(), h264.TotalBits())
	}
	if hevc.MeanCycles() <= h264.MeanCycles() {
		t.Fatalf("HEVC cycles %.3g should exceed H.264's %.3g", hevc.MeanCycles(), h264.MeanCycles())
	}
}

func TestCodecValidateRejectsBadRateFactor(t *testing.T) {
	c := DefaultCodec()
	c.RateFactor = 0
	if err := c.Validate(); err == nil {
		t.Fatal("want error for zero rate factor")
	}
	c.RateFactor = 2
	if err := c.Validate(); err == nil {
		t.Fatal("want error for rate factor 2")
	}
}

func TestStreamDurationEmpty(t *testing.T) {
	s := &Stream{Spec: DefaultSpec(TitleNews, R360p)}
	if s.Duration() != 0 || s.MeanCycles() != 0 {
		t.Fatal("empty stream should report zeros")
	}
}

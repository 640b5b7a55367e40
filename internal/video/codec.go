package video

import "fmt"

// Codec holds the decode-complexity coefficients: per-frame demand is
//
//	cycles = (PixelCycles·pixels + BitCycles·bits) · typeMult · scene · jitter
//
// The two-term form captures that decode cost has a resolution-proportional
// part (pixel reconstruction, deblocking) and a bitrate-proportional part
// (entropy decoding), as decoder profiling consistently shows.
type Codec struct {
	// Name identifies the codec in reports ("h264", "hevc").
	Name string
	// RateFactor scales the bitrate needed for equal quality relative to
	// the H.264 ladder (HEVC ≈ 0.6).
	RateFactor float64
	// PixelCycles is the cycles spent per pixel per frame.
	PixelCycles float64
	// BitCycles is the cycles spent per coded bit.
	BitCycles float64
	// TypeCycleMult scales cycles by frame type (I frames touch more
	// intra prediction, B frames skip more macroblocks).
	TypeCycleMult map[FrameType]float64
	// TypeBitWeight sets the relative coded size of frame types within a
	// GOP's bit budget (I frames are several times larger than P).
	TypeBitWeight map[FrameType]float64
	// JitterCV is the per-frame lognormal coefficient of variation.
	JitterCV float64
}

// DefaultCodec returns coefficients calibrated so that mean per-frame
// demand lands near published software H.264 figures: ≈4 M cycles (360p),
// ≈7.5 M (480p), ≈18 M (720p), ≈38 M (1080p) at the DefaultBitrate ladder.
func DefaultCodec() Codec {
	return Codec{
		Name:        "h264",
		RateFactor:  1.0,
		PixelCycles: 12.0,
		BitCycles:   50.0,
		TypeCycleMult: map[FrameType]float64{
			FrameI: 1.20,
			FrameP: 1.00,
			FrameB: 0.85,
		},
		TypeBitWeight: map[FrameType]float64{
			FrameI: 4.0,
			FrameP: 1.5,
			FrameB: 0.7,
		},
		JitterCV: 0.25,
	}
}

// HEVCCodec returns H.265/HEVC coefficients: ≈40% lower bitrate for equal
// quality, paid for with heavier per-pixel reconstruction (larger CTUs,
// SAO) and costlier entropy decoding per bit — software HEVC decode runs
// ≈1.4–1.6× the cycles of H.264 at matched quality.
func HEVCCodec() Codec {
	c := DefaultCodec()
	c.Name = "hevc"
	c.RateFactor = 0.60
	c.PixelCycles = 16.0
	c.BitCycles = 85.0
	return c
}

// Codecs returns the built-in codec models.
func Codecs() []Codec { return []Codec{DefaultCodec(), HEVCCodec()} }

// CodecByName returns a built-in codec model.
func CodecByName(name string) (Codec, error) {
	for _, c := range Codecs() {
		if c.Name == name {
			return c, nil
		}
	}
	return Codec{}, fmt.Errorf("video: unknown codec %q", name)
}

// Validate checks coefficient sanity.
func (c Codec) Validate() error {
	if c.RateFactor <= 0 || c.RateFactor > 1.5 {
		return fmt.Errorf("codec: rate factor %v outside (0, 1.5]", c.RateFactor)
	}
	if c.PixelCycles <= 0 || c.BitCycles < 0 {
		return fmt.Errorf("codec: cycle coefficients (pixel %v, bit %v) invalid", c.PixelCycles, c.BitCycles)
	}
	for _, t := range []FrameType{FrameI, FrameP, FrameB} {
		if c.TypeCycleMult[t] <= 0 {
			return fmt.Errorf("codec: missing cycle multiplier for %s frames", t)
		}
		if c.TypeBitWeight[t] <= 0 {
			return fmt.Errorf("codec: missing bit weight for %s frames", t)
		}
	}
	if c.JitterCV < 0 {
		return fmt.Errorf("codec: negative jitter CV %v", c.JitterCV)
	}
	return nil
}

// Package video models the decode workload of a streamed video: frames
// with presentation timestamps, GOP structure (I/P/B), per-frame bit and
// decode-cycle demands, bitrate ladders for ABR, and CSV trace I/O.
//
// The generator is synthetic but calibrated: per-frame decode demands match
// published software H.264 decode profiling (≈4 M cycles for 360p frames up
// to ≈38 M cycles for 1080p frames at typical streaming bitrates), with
// GOP-structured bit allocation, scene-level complexity drift, and
// lognormal per-frame jitter. The DVFS policy consumes only demands and
// deadlines, so these statistics are what matters.
package video

import (
	"fmt"

	"videodvfs/internal/sim"
)

// FrameType is the coding type of a frame.
type FrameType uint8

// Frame coding types.
const (
	// FrameI is an intra-coded frame (large, starts a GOP).
	FrameI FrameType = iota + 1
	// FrameP is a predicted frame.
	FrameP
	// FrameB is a bi-predicted frame (smallest, cheapest).
	FrameB
)

// String returns the conventional single-letter name.
func (t FrameType) String() string {
	switch t {
	case FrameI:
		return "I"
	case FrameP:
		return "P"
	case FrameB:
		return "B"
	default:
		return "?"
	}
}

// ParseFrameType converts a single-letter name back to a FrameType.
func ParseFrameType(s string) (FrameType, error) {
	switch s {
	case "I":
		return FrameI, nil
	case "P":
		return FrameP, nil
	case "B":
		return FrameB, nil
	default:
		return 0, fmt.Errorf("video: unknown frame type %q", s)
	}
}

// Frame is one coded picture.
type Frame struct {
	// Index is the position in presentation order.
	Index int
	// Type is the coding type.
	Type FrameType
	// PTS is the presentation timestamp relative to stream start.
	PTS sim.Time
	// Bits is the coded size.
	Bits float64
	// Cycles is the true decode demand in CPU cycles. Governors must not
	// read it directly (only the oracle does); the decoder reports it
	// after the fact, as measured decode time would be on a device.
	Cycles float64
}

// Resolution is a frame size preset.
type Resolution struct {
	// Name is the conventional label, e.g. "720p".
	Name string
	// Width and Height are in pixels.
	Width, Height int
}

// Pixels returns the pixel count per frame.
func (r Resolution) Pixels() float64 { return float64(r.Width) * float64(r.Height) }

// Standard streaming resolutions.
var (
	R360p  = Resolution{Name: "360p", Width: 640, Height: 360}
	R480p  = Resolution{Name: "480p", Width: 854, Height: 480}
	R720p  = Resolution{Name: "720p", Width: 1280, Height: 720}
	R1080p = Resolution{Name: "1080p", Width: 1920, Height: 1080}
)

// Resolutions returns the evaluation ladder from lowest to highest.
func Resolutions() []Resolution { return []Resolution{R360p, R480p, R720p, R1080p} }

// ResolutionByName returns a standard resolution by label.
func ResolutionByName(name string) (Resolution, error) {
	for _, r := range Resolutions() {
		if r.Name == name {
			return r, nil
		}
	}
	return Resolution{}, fmt.Errorf("video: unknown resolution %q", name)
}

// DefaultBitrate returns a typical streaming bitrate (bps) for a
// resolution, matching common DASH ladders.
func DefaultBitrate(r Resolution) float64 {
	switch r.Name {
	case "360p":
		return 0.8e6
	case "480p":
		return 1.5e6
	case "720p":
		return 4e6
	case "1080p":
		return 8e6
	default:
		// Scale by pixels relative to 720p.
		return 4e6 * r.Pixels() / R720p.Pixels()
	}
}

// Stream is a fully generated sequence of frames plus the spec that
// produced it. Streams are immutable once shared.
type Stream struct {
	// Spec is the generation recipe.
	Spec Spec
	// Frames are in presentation order with monotonically increasing PTS.
	Frames []Frame

	// segs is the stream's own segment table at segDur (ShareSegments),
	// read-only once the stream is shared.
	segs   []Segment
	segDur sim.Time
}

// Duration returns the presentation span of the stream.
func (s *Stream) Duration() sim.Time {
	if len(s.Frames) == 0 {
		return 0
	}
	return s.Frames[len(s.Frames)-1].PTS + sim.Time(1/s.Spec.FPS)
}

// TotalBits returns the coded size of the whole stream.
func (s *Stream) TotalBits() float64 {
	var sum float64
	for _, f := range s.Frames {
		sum += f.Bits
	}
	return sum
}

// MeanCycles returns the mean per-frame decode demand.
func (s *Stream) MeanCycles() float64 {
	if len(s.Frames) == 0 {
		return 0
	}
	var sum float64
	for _, f := range s.Frames {
		sum += f.Cycles
	}
	return sum / float64(len(s.Frames))
}

// SustainedHz returns the average cycle rate needed to decode in real
// time: mean cycles per frame × fps. A CPU pinned below this rate must
// eventually drop frames regardless of buffering.
func (s *Stream) SustainedHz() float64 { return s.MeanCycles() * s.Spec.FPS }

package video

import (
	"fmt"

	"videodvfs/internal/sim"
)

// Segment is a DASH-style media segment: a contiguous run of frames that
// is downloaded as a unit.
type Segment struct {
	// Index is the segment position in the stream.
	Index int
	// Start is the presentation time of the first frame.
	Start sim.Time
	// Duration is the presentation span of the segment.
	Duration sim.Time
	// Bits is the total coded size.
	Bits float64
	// Frames are the segment's frames in presentation order.
	Frames []Frame
}

// Segmentize splits a stream into fixed-duration segments (the last one
// may be shorter). Segment boundaries snap to frame boundaries.
func Segmentize(s *Stream, segDur sim.Time) ([]Segment, error) {
	if segDur <= 0 {
		return nil, fmt.Errorf("video: segment duration %v not positive", segDur)
	}
	if len(s.Frames) == 0 {
		return nil, fmt.Errorf("video: cannot segmentize empty stream")
	}
	framesPerSeg := int(segDur.Seconds() * s.Spec.FPS)
	if framesPerSeg < 1 {
		framesPerSeg = 1
	}
	segs := make([]Segment, 0, (len(s.Frames)+framesPerSeg-1)/framesPerSeg)
	for off := 0; off < len(s.Frames); off += framesPerSeg {
		end := off + framesPerSeg
		if end > len(s.Frames) {
			end = len(s.Frames)
		}
		chunk := s.Frames[off:end]
		var bits float64
		for _, f := range chunk {
			bits += f.Bits
		}
		segs = append(segs, Segment{
			Index:    len(segs),
			Start:    chunk[0].PTS,
			Duration: sim.Time(float64(len(chunk)) / s.Spec.FPS),
			Bits:     bits,
			Frames:   chunk,
		})
	}
	return segs, nil
}

// ShareSegments cuts s into segments of segDur and keeps the table on the
// stream, so every session that segments s at segDur reads this one table
// (Segments) instead of cutting its own. It returns the table, whose bytes
// an owner may charge with the frames. Call it before s is shared: the
// table is read-only after. A stream Segmentize cannot cut keeps no table,
// and Segments reports the error.
func (s *Stream) ShareSegments(segDur sim.Time) []Segment {
	segs, err := Segmentize(s, segDur)
	if err != nil {
		return nil
	}
	s.segs, s.segDur = segs, segDur
	return segs
}

// Segments returns s's segment table at segDur: the stream's shared table
// when ShareSegments cut it at segDur, which the caller must not modify,
// and otherwise a new Segmentize table the caller owns.
func (s *Stream) Segments(segDur sim.Time) ([]Segment, error) {
	if s.segs != nil && segDur == s.segDur {
		return s.segs, nil
	}
	return Segmentize(s, segDur)
}

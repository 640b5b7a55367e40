package video

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"videodvfs/internal/sim"
)

// framesDigest is the SHA-256 of a stream's frames, each encoded as its
// index, type and the IEEE-754 bits of its PTS, size and demand, little
// endian.
func framesDigest(s *Stream) string {
	h := sha256.New()
	var b [33]byte
	for _, f := range s.Frames {
		binary.LittleEndian.PutUint64(b[0:], uint64(f.Index))
		b[8] = byte(f.Type)
		binary.LittleEndian.PutUint64(b[9:], math.Float64bits(float64(f.PTS)))
		binary.LittleEndian.PutUint64(b[17:], math.Float64bits(f.Bits))
		binary.LittleEndian.PutUint64(b[25:], math.Float64bits(f.Cycles))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratePinned pins the generator's output bit for bit: every
// experiment, golden table and cached dvfsd result reads these frames, so
// a change to how a stream is synthesized (draw order, a hoisted
// expression, a codec table) must show here before anywhere else. The
// digests were taken from the generator before its jitter draws were
// solved once per stream; they must never move without a declared model
// change.
func TestGeneratePinned(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		dur  sim.Time
		seed int64
		want string
	}{
		{"sports-720p-h264", DefaultSpec(TitleSports, R720p), 60 * sim.Second, 1,
			"318d98296ffff02ab007c2e44fcbd93dcaf615f0729e78b4333c82f9384f6120"},
		{"news-1080p-hevc", DefaultSpec(TitleNews, R1080p).WithCodec(HEVCCodec()), 30 * sim.Second, 7,
			"591d1cd8ca7f057e7e47a235a5060265be900bed0ec28075b3e9a6dd801fdb68"},
		{"animation-360p-24fps", func() Spec { s := DefaultSpec(TitleAnimation, R360p); s.FPS = 24; return s }(), 45 * sim.Second, 123,
			"520323a84be19ef16dc62e1f3faf44e6f799d96d1b6f0dada7ca654e3f3695f4"},
	}
	for _, c := range cases {
		s, err := Generate(c.spec, c.dur, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := framesDigest(s); got != c.want {
			t.Errorf("%s: frames digest %s, want %s", c.name, got, c.want)
		}
	}
}

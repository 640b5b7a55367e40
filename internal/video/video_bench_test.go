package video

import (
	"testing"

	"videodvfs/internal/sim"
)

// BenchmarkGenerate measures synthesizing 60 s of 720p workload.
func BenchmarkGenerate(b *testing.B) {
	spec := DefaultSpec(TitleSports, R720p)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(spec, 60*sim.Second, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegmentize measures splitting a 10-minute stream.
func BenchmarkSegmentize(b *testing.B) {
	s, err := Generate(DefaultSpec(TitleNews, R720p), 10*sim.Minute, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Segmentize(s, 2*sim.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateLadder measures synthesizing 30 s of every rung of
// DefaultLadder: the generation a ladder request pays on a memo miss.
func BenchmarkGenerateLadder(b *testing.B) {
	ladder := DefaultLadder()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateLadder(TitleSports, 30, ladder, 30*sim.Second, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

package cpu

import (
	"testing"

	"videodvfs/internal/sim"
)

// BenchmarkCoreJobThroughput measures job dispatch + completion cost on
// one recycled engine and core: each op resets both, submits 1000 jobs
// spread over the three priorities, and runs them all. The rings grow in
// a warm-up op, so the timed ops allocate nothing.
func BenchmarkCoreJobThroughput(b *testing.B) {
	const jobs = 1000
	model := DeviceFlagship()
	eng := sim.NewEngine()
	core, err := NewCore(eng, model)
	if err != nil {
		b.Fatal(err)
	}
	op := func() {
		eng.Reset()
		if err := core.Reset(model); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < jobs; j++ {
			if err := core.Submit(Job{Cycles: 1e6, Priority: Priority(j % 3)}); err != nil {
				b.Fatal(err)
			}
		}
		eng.Run()
	}
	op()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*jobs), "ns/job")
}

// BenchmarkCoreDVFSChurn measures OPP-change cost with a job in flight
// (the energy-aware governor switches per frame).
func BenchmarkCoreDVFSChurn(b *testing.B) {
	eng := sim.NewEngine()
	core, err := NewCore(eng, DeviceFlagship())
	if err != nil {
		b.Fatal(err)
	}
	if err := core.Submit(Job{Cycles: 1e18}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SetOPP(i % len(core.Model().OPPs))
	}
}

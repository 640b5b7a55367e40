package sim

import "testing"

// BenchmarkEngineScheduleRun measures raw event throughput: schedule and
// drain 1k events per iteration.
func BenchmarkEngineScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := NewEngine()
		for j := 0; j < 1000; j++ {
			eng.Schedule(Time(j)*Millisecond, func() {})
		}
		eng.Run()
	}
}

// BenchmarkEngineNestedChain measures the self-scheduling pattern the
// decoder and tickers use.
func BenchmarkEngineNestedChain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := NewEngine()
		n := 0
		var step func()
		step = func() {
			n++
			if n < 1000 {
				eng.Schedule(Millisecond, step)
			}
		}
		eng.Schedule(Millisecond, step)
		eng.Run()
	}
}

// runShape is one viewer's event traffic in a run: three periodic
// sources (frame display at 30 fps, the governor's 20 ms tick, a 50 ms
// network poll) and a CPU-completion chain that re-arms itself with
// varying job lengths. The governor tick cancels and re-arms the pending
// completion, as an OPP change does, so at most four events are pending.
type runShape struct {
	eng    *Engine
	events int
	jobs   int
	done   Event

	frameFn, govFn, netFn, doneFn func()
}

func newRunShape(eng *Engine) *runShape {
	r := &runShape{eng: eng}
	r.frameFn = func() { r.events++; r.eng.Schedule(Second/30, r.frameFn) }
	r.govFn = func() {
		r.events++
		r.eng.Cancel(r.done)
		r.done = r.eng.Schedule(r.jobLen(), r.doneFn)
		r.eng.Schedule(20*Millisecond, r.govFn)
	}
	r.netFn = func() { r.events++; r.eng.Schedule(50*Millisecond, r.netFn) }
	r.doneFn = func() { r.events++; r.done = r.eng.Schedule(r.jobLen(), r.doneFn) }
	return r
}

// start arms the four sources, the first at phase.
func (r *runShape) start(phase Time) {
	r.eng.Schedule(phase, r.frameFn)
	r.eng.Schedule(phase+Millisecond, r.govFn)
	r.eng.Schedule(phase+2*Millisecond, r.netFn)
	r.done = r.eng.Schedule(phase+r.jobLen(), r.doneFn)
}

// jobLen cycles through decode-like job lengths of 3–12 ms.
func (r *runShape) jobLen() Time {
	r.jobs++
	return Time(3+r.jobs%10) * Millisecond
}

// BenchmarkEngineRunShape measures the engine on a single run's traffic
// shape (at most four pending events, most callbacks re-arming one
// successor): one op is 30 virtual seconds on a reset engine.
func BenchmarkEngineRunShape(b *testing.B) {
	eng := NewEngine()
	r := newRunShape(eng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.Reset()
		r.start(0)
		eng.RunUntil(30 * Second)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(r.events), "ns/event")
}

// BenchmarkEngineCohortShape measures the engine on one cohort shard's
// shape: 500 run-shaped viewers at staggered phases, each also holding a
// horizon cut 240 s out, as a cohort viewer does, so about 2,500 events
// are pending and 500 of them are far-future. A 1,000-viewer Poisson
// cohort on two shards (the cohort-churn workload) keeps a median of
// 2,122 events pending per shard (peak 2,478), up to 500 of them such
// cuts, so the engine runs in its calendar regime. One op advances the
// population 100 virtual ms.
func BenchmarkEngineCohortShape(b *testing.B) {
	eng := NewEngine()
	var cut func()
	cut = func() { eng.Schedule(240*Second, cut) }
	viewers := make([]*runShape, 500)
	for v := range viewers {
		viewers[v] = newRunShape(eng)
		phase := Time(v%97) * Millisecond / 3
		viewers[v].start(phase)
		eng.Schedule(phase+240*Second, cut)
	}
	eng.RunUntil(Second)
	count := func() (n int) {
		for _, r := range viewers {
			n += r.events
		}
		return n
	}
	before := count()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunUntil(eng.Now() + 100*Millisecond)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(count()-before), "ns/event")
}

// BenchmarkRNGLognormal measures the hot demand-jitter draw.
func BenchmarkRNGLognormal(b *testing.B) {
	g := Stream(1, "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.LognormalMeanCV(1e7, 0.3)
	}
}

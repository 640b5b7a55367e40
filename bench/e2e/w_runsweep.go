package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"videodvfs/internal/cpu"
	"videodvfs/internal/experiments"
	"videodvfs/internal/trace"
	"videodvfs/internal/video"
)

const (
	// seedPool is how many content seeds run-sweep draws from.
	seedPool = 16
	// digestOps is how many leading ops run-sweep digests and re-runs.
	digestOps = 256
	// countedRuns is how many traced run-sweep ops carry the counting
	// tracer; they are the odd ops among the first 2×countedRuns, so the
	// counts repeat exactly for a seed whatever the machine's speed.
	countedRuns = 256
)

var (
	sweepGovernors = []experiments.GovernorID{
		experiments.GovEnergyAware, experiments.GovOracle, "ondemand", "interactive", "conservative", "schedutil",
	}
	sweepABRs = []experiments.ABRID{experiments.ABRFixed, experiments.ABRBBA, experiments.ABRRate}
	// sustained lists the fixed rungs whose bitrate stays within 80% of a
	// network's mean rate: pinning a higher rung on a slower link only
	// measures rebuffering.
	sustained = map[experiments.NetKind][]video.Resolution{
		experiments.NetWiFi:   {video.R360p, video.R480p, video.R720p, video.R1080p},
		experiments.NetConst8: {video.R360p, video.R480p, video.R720p},
		experiments.NetLTE:    {video.R360p, video.R480p, video.R720p, video.R1080p},
		experiments.NetUMTS:   {video.R360p, video.R480p},
	}
)

// runSweep is a closed loop of experiments.Run calls on one goroutine over
// configs drawn from the seed. Every stream and bandwidth trace the pool
// can draw is generated in set-up, so the window measures the single-viewer
// hot path and no generation.
type runSweep struct {
	rng   *rand.Rand
	seeds []int64
	// kept are the configs and results of the first digestOps ops.
	kept    []experiments.RunConfig
	results []experiments.RunResult
	digest  string
	counts  countingTracer
	counted int
}

func (w *runSweep) draw() experiments.RunConfig {
	r := w.rng
	cfg := experiments.DefaultRunConfig()
	cfg.Duration = contentDur
	cfg.Governor = sweepGovernors[r.Intn(len(sweepGovernors))]
	nets := experiments.SyntheticNetKinds()
	cfg.Net = nets[r.Intn(len(nets))]
	cfg.ABR = sweepABRs[r.Intn(len(sweepABRs))]
	devs := cpu.Devices()
	cfg.Device = devs[r.Intn(len(devs))]
	titles := video.Titles()
	cfg.Title = titles[r.Intn(len(titles))]
	cfg.Seed = w.seeds[r.Intn(len(w.seeds))]
	if cfg.ABR == experiments.ABRFixed {
		rungs := sustained[cfg.Net]
		cfg.Rung = rungs[r.Intn(len(rungs))]
	}
	return cfg
}

func (w *runSweep) setup(b *bench) error {
	w.rng = rand.New(rand.NewSource(b.opt.seed))
	seen := map[int64]bool{}
	for len(w.seeds) < seedPool {
		s := 1 + w.rng.Int63n(1<<30)
		if !seen[s] {
			seen[s] = true
			w.seeds = append(w.seeds, s)
		}
	}
	// One run per stream key (title × seed × ladder or fixed rung) and per
	// Markov trace (seed × lte/umts) fills the package memos with every
	// input the pool can draw.
	for _, seed := range w.seeds {
		cfg := experiments.DefaultRunConfig()
		cfg.Duration, cfg.Seed = contentDur, seed
		cfg.Net, cfg.Rung = experiments.NetUMTS, video.R360p
		if _, err := experiments.Run(cfg); err != nil {
			return err
		}
		for _, title := range video.Titles() {
			cfg.Title = title
			cfg.ABR, cfg.Net = experiments.ABRBBA, experiments.NetLTE
			if _, err := experiments.Run(cfg); err != nil {
				return err
			}
			cfg.ABR, cfg.Net = experiments.ABRFixed, experiments.NetWiFi
			for _, rung := range video.Resolutions() {
				cfg.Rung = rung
				if _, err := experiments.Run(cfg); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (w *runSweep) run(b *bench) (windowResult, error) {
	var res windowResult
	var sess *experiments.Session
	if b.spans != nil {
		sess = experiments.NewSession()
	}
	wc := startWindow()
	for i := 0; !wc.over(b.window); i++ {
		cfg := w.draw()
		var out experiments.RunResult
		var err error
		t0 := time.Now()
		if sess == nil {
			out, err = experiments.Run(cfg)
		} else {
			err = w.tracedOp(b, sess, i, cfg, &out)
		}
		res.timed = append(res.timed, opSpan{t0, time.Now(), err == nil})
		res.attempted++
		if err != nil {
			res.fail(1, fmt.Errorf("op %d: %w", i, err))
			continue
		}
		res.ops++
		res.contentS += contentDur.Seconds()
		if i < digestOps {
			w.kept = append(w.kept, cfg)
			w.results = append(w.results, out)
		}
	}
	wc.finish(&res)
	return res, nil
}

// tracedOp runs one op on an explicit arena so Reset and Finish are timed
// apart; the counted ops carry a counting tracer.
func (w *runSweep) tracedOp(b *bench, sess *experiments.Session, i int, cfg experiments.RunConfig, out *experiments.RunResult) error {
	attr := "untraced"
	run := cfg
	if i < 2*countedRuns && i%2 == 1 {
		attr = "traced"
		run.Tracer = &w.counts
		w.counted++
	}
	op := b.spans.id()
	t0 := time.Now()
	err := sess.Reset(run)
	t1 := time.Now()
	if err == nil {
		err = sess.Finish(out)
	}
	t2 := time.Now()
	b.spans.record(0, op, op, "experiments.reset", t0, t1, attr, 0)
	b.spans.record(0, op, op, "experiments.finish", t1, t2, attr, int64(out.QoE.TotalFrames))
	b.spans.record(op, 0, op, "run", t0, t2, attr, int64(i))
	return err
}

func (w *runSweep) check(b *bench) []error {
	var errs []error
	var served, fresh [][]byte
	for i, r := range w.results {
		if !r.QoE.Completed {
			errs = append(errs, fmt.Errorf("run-sweep op %d did not complete", i))
		}
		data, err := json.Marshal(r)
		if err != nil {
			return append(errs, err)
		}
		served = append(served, data)
	}
	// The same ops on fresh arenas must reproduce the digest: recycled
	// sessions (and, traced, the counting tracer) change no result.
	for _, cfg := range w.kept {
		var r experiments.RunResult
		if err := experiments.NewSession().RunInto(cfg, &r); err != nil {
			return append(errs, fmt.Errorf("run-sweep re-run: %w", err))
		}
		data, err := json.Marshal(r)
		if err != nil {
			return append(errs, err)
		}
		fresh = append(fresh, data)
	}
	w.digest = digestOf(served...)
	if g := digestOf(fresh...); g != w.digest {
		errs = append(errs, fmt.Errorf("run-sweep digest %s on recycled arenas, %s on fresh ones", w.digest, g))
	}
	return errs
}

func (w *runSweep) outputDigest() string { return w.digest }

func (w *runSweep) layers(b *bench, res windowResult) map[string]float64 {
	spans := b.spans.snapshot()
	out := map[string]float64{}
	out["experiments.reset_us_p50"] = 1e3 * median(durations(spans, "experiments.reset", "untraced"))
	out["experiments.finish_us_p50"] = 1e3 * median(durations(spans, "experiments.finish", "untraced"))
	var perFrame []float64
	finish := map[int64]float64{}
	for _, s := range spans {
		if s.Name != "experiments.finish" {
			continue
		}
		finish[s.Op] = ms(s.dur())
		if s.Attr == "untraced" && s.N > 0 {
			perFrame = append(perFrame, float64(s.dur())/float64(s.N))
		}
	}
	// The overhead compares finish times within the counted prefix only,
	// where traced and untraced ops alternate over the same config draw.
	var prefixUntraced, prefixTraced []float64
	for _, s := range spans {
		if s.Name == "run" && s.N < 2*countedRuns {
			if s.Attr == "traced" {
				prefixTraced = append(prefixTraced, finish[s.ID])
			} else {
				prefixUntraced = append(prefixUntraced, finish[s.ID])
			}
		}
	}
	out["experiments.finish_ns_per_frame"] = median(perFrame)
	base := median(prefixUntraced)
	out["trace.overhead_share"] = ratio(median(prefixTraced)-base, base)
	n := float64(max(w.counted, 1))
	c := w.counts
	out["core.decisions_per_run"] = float64(c.decisions) / n
	out["cpu.opp_transitions_per_run"] = float64(c.opp) / n
	out["cpu.busy_transitions_per_run"] = float64(c.busy) / n
	out["decode.frames_decoded_per_run"] = float64(c.decoded) / n
	out["player.frames_dropped_per_run"] = float64(c.dropped) / n
	out["netsim.rrc_transitions_per_run"] = float64(c.rrc) / n
	out["abr.switches_per_run"] = float64(c.abr) / n
	out["energy.power_steps_per_run"] = float64(c.power) / n
	out["experiments.allocs_per_run"] = ratio(float64(res.allocs), float64(res.attempted))
	out["experiments.alloc_bytes_per_run"] = ratio(float64(res.allocBytes), float64(res.attempted))
	return out
}

func (w *runSweep) close() {}

// countingTracer counts the modelled work of the runs it is attached to.
// Its counts depend only on the configs, never on the host's speed.
type countingTracer struct {
	decisions, opp, busy, decoded, dropped, rrc, abr, power int64
}

func (c *countingTracer) Decision(trace.DecisionEvent) { c.decisions++ }
func (c *countingTracer) Frame(e trace.FrameEvent) {
	switch e.Stage {
	case trace.StageDecodeEnd:
		c.decoded++
	case trace.StageDropped:
		c.dropped++
	}
}
func (c *countingTracer) OPP(trace.OPPEvent)           { c.opp++ }
func (c *countingTracer) CPUBusy(trace.CPUBusyEvent)   { c.busy++ }
func (c *countingTracer) RRC(trace.RRCEvent)           { c.rrc++ }
func (c *countingTracer) ABR(trace.ABREvent)           { c.abr++ }
func (c *countingTracer) Buffer(trace.BufferEvent)     {}
func (c *countingTracer) Playback(trace.PlaybackEvent) {}
func (c *countingTracer) Power(trace.PowerEvent)       { c.power++ }

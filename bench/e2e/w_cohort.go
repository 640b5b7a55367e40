package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"videodvfs/internal/cohort"
	"videodvfs/internal/experiments"
)

// cohortViewers is the size of each cohort-churn cohort. At Poisson 50/s
// joins over 30 s sessions all of them are active at the peak, and a
// cohort costs about 1.3 s on two cores, so a window holds enough cohorts
// for a stable median.
const cohortViewers = 1000

// cohortEvent seeds the live event every cohort watches: its stream and
// the LTE bandwidth trace all of its viewers share. It is fixed, not drawn
// from the workload seed, so that runs differ in their audience only: with
// one trace per run drawn from the seed, peak_heap_mb spread twice as far
// between seeds (14% against 7% over eight).
const cohortEvent = 1

// cohortChurn is a closed loop of back-to-back cohort.Run calls. Each
// cohort is the same live event (one stream, generated in set-up) with a
// fresh cohort seed, so every op builds and tears down a full population.
type cohortChurn struct {
	seed    int64
	op0     []byte
	op0Fail error
	incompl int
	peak    int
}

// config returns op i's cohort: the workload seed plus the op index seeds
// the arrivals and per-viewer device load.
func (w *cohortChurn) config(i int) cohort.Config {
	base := experiments.DefaultRunConfig()
	base.Duration = contentDur
	base.ABR = experiments.ABRBBA
	base.Net = experiments.NetLTE
	base.Seed = cohortEvent
	return cohort.Config{
		Base:    base,
		Viewers: cohortViewers,
		Arrival: cohort.Arrival{Kind: cohort.ArrivalPoisson, RatePerSec: 50},
		Cell:    &cohort.Cell{CapacityMbps: 250, Sectors: 8},
		Shards:  2,
		Seed:    w.seed + int64(i),
	}
}

// warmViewers is the size of the warm-up cohort set-up runs, so the first
// timed cohort does not pay the process's first heap growth alone.
const warmViewers = 100

func (w *cohortChurn) setup(b *bench) error {
	w.seed = b.opt.seed
	// A small cohort of the same event, seeded apart from every op, also
	// generates the event's stream and bandwidth trace once, as a live
	// event's origin would have before viewers arrive.
	warm := w.config(-1)
	warm.Viewers = warmViewers
	res, err := cohort.Run(warm)
	if err != nil {
		return err
	}
	if res.Completed != warmViewers {
		return fmt.Errorf("warm-up cohort: %d of %d viewers completed: %s", res.Completed, warmViewers, res.FirstError)
	}
	return nil
}

func (w *cohortChurn) run(b *bench) (windowResult, error) {
	var res windowResult
	wc := startWindow()
	for i := 0; !wc.over(b.window); i++ {
		cfg := w.config(i)
		var op int64
		var last time.Time
		if b.spans != nil {
			op = b.spans.id()
			cfg.OnRollup = func(r cohort.Rollup) {
				now := time.Now()
				b.spans.record(0, op, op, "cohort.step", last, now, "", int64(r.Active))
				last = now
				w.peak = max(w.peak, r.Active)
			}
		}
		t0 := time.Now()
		last = t0
		out, err := cohort.Run(cfg)
		t1 := time.Now()
		if b.spans != nil {
			b.spans.record(op, 0, op, "cohort.run", t0, t1, "", int64(i))
		}
		res.timed = append(res.timed, opSpan{t0, t1, err == nil && out.Completed == cohortViewers})
		res.attempted += cohortViewers
		if err != nil {
			res.fail(cohortViewers, fmt.Errorf("cohort %d: %w", i, err))
			if i == 0 {
				w.op0Fail = err
			}
			continue
		}
		if out.Completed != cohortViewers {
			res.fail(int64(cohortViewers-out.Completed),
				fmt.Errorf("cohort %d: %d viewers incomplete: %s", i, cohortViewers-out.Completed, out.FirstError))
			w.incompl++
			continue
		}
		res.ops++
		res.contentS += cohortViewers * contentDur.Seconds()
		if i == 0 {
			if w.op0, err = json.Marshal(out); err != nil {
				return res, err
			}
		}
	}
	wc.finish(&res)
	res.info = append(res.info, line{"cohort.viewers", cohortViewers, "count"})
	return res, nil
}

func (w *cohortChurn) check(b *bench) []error {
	var errs []error
	if w.incompl > 0 {
		errs = append(errs, fmt.Errorf("cohort-churn: %d cohorts left viewers incomplete", w.incompl))
	}
	if w.op0Fail != nil {
		return append(errs, fmt.Errorf("cohort-churn op 0: %w", w.op0Fail))
	}
	if w.op0 == nil {
		return append(errs, fmt.Errorf("cohort-churn: op 0 produced no result"))
	}
	again, err := cohort.Run(w.config(0))
	if err != nil {
		return append(errs, fmt.Errorf("cohort-churn re-run of op 0: %w", err))
	}
	data, err := json.Marshal(again)
	if err != nil {
		return append(errs, err)
	}
	if !bytes.Equal(data, w.op0) {
		errs = append(errs, fmt.Errorf("cohort-churn: re-running op 0 changed its result bytes"))
	}
	return errs
}

func (w *cohortChurn) outputDigest() string { return digestOf(w.op0) }

func (w *cohortChurn) layers(b *bench, res windowResult) map[string]float64 {
	spans := b.spans.snapshot()
	steps := durations(spans, "cohort.step", "")
	var stepMs, active float64
	for _, s := range spans {
		if s.Name == "cohort.step" && s.N > 0 {
			stepMs += ms(s.dur())
			active += float64(s.N)
		}
	}
	return map[string]float64{
		"cohort.rollup_step_ms_p50":        median(steps),
		"cohort.rollup_step_ms_max":        quantile(steps, 1),
		"cohort.ms_per_active_viewer_step": ratio(stepMs, active),
		"cohort.allocs_per_viewer":         ratio(float64(res.allocs), float64(res.attempted)),
		"cohort.alloc_bytes_per_viewer":    ratio(float64(res.allocBytes), float64(res.attempted)),
		"cohort.peak_active_viewers":       float64(w.peak),
	}
}

func (w *cohortChurn) close() {}

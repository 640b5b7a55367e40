package experiments

import (
	"fmt"

	"videodvfs/internal/campaign"
	"videodvfs/internal/cpu"
	"videodvfs/internal/video"
)

// Outcome pairs one RunConfig with its result or error in a batch.
type Outcome struct {
	// Index is the config's position in the input slice.
	Index int
	// Config is the config that ran.
	Config RunConfig
	// Result is the run's outcome (zero when Err is set).
	Result RunResult
	// Err is the run's error; a panicking run surfaces a
	// *campaign.PanicError.
	Err error
}

// RunAll executes cfgs across a worker pool and returns outcomes in input
// order. workers ≤ 0 means GOMAXPROCS. Each run builds its own engine and
// derives all randomness from its seed, so results are bit-identical for
// any worker count; a failing or panicking run marks only its own slot.
func RunAll(cfgs []RunConfig, workers int) []Outcome {
	jobs := make([]campaign.Job[RunResult], len(cfgs))
	for i, cfg := range cfgs {
		cfg := cfg
		jobs[i] = func() (RunResult, error) { return Run(cfg) }
	}
	raw := campaign.Do(jobs, campaign.Options{Workers: workers})
	outs := make([]Outcome, len(raw))
	for i, o := range raw {
		outs[i] = Outcome{Index: i, Config: cfgs[i], Result: o.Value, Err: o.Err}
	}
	return outs
}

// runAllStrict batches cfgs across GOMAXPROCS workers and returns results
// in input order, failing on the first per-run error. It is the builders'
// workhorse: table code assembles its config grid, fans it out here, and
// formats rows from the ordered results.
func runAllStrict(cfgs []RunConfig) ([]RunResult, error) {
	outs := RunAll(cfgs, 0)
	res := make([]RunResult, len(outs))
	for i, o := range outs {
		if o.Err != nil {
			return nil, fmt.Errorf("run %d (%s/%s/%s/%s seed %d): %w",
				i, o.Config.Governor, o.Config.Rung.Name, o.Config.Title.Name, o.Config.Net, o.Config.Seed, o.Err)
		}
		res[i] = o.Result
	}
	return res, nil
}

// Sweep expands a template config over axis lists and a seed set. Axes
// left nil keep the template's value; the expansion is the cross product
// in declaration order (governor-major, seed-minor), so the result order
// is deterministic and independent of the worker count that later runs
// it.
type Sweep struct {
	// Base is the config template every point starts from.
	Base RunConfig
	// Governors is the governor axis (nil = Base.Governor only).
	Governors []GovernorID
	// Nets is the network axis (nil = Base.Net only).
	Nets []NetKind
	// Devices is the device axis (nil = Base.Device only).
	Devices []cpu.Model
	// Titles is the content axis (nil = Base.Title only).
	Titles []video.Title
	// Rungs is the resolution axis (nil = Base.Rung only).
	Rungs []video.Resolution
	// Seeds is the seed axis (nil = Base.Seed only).
	Seeds []int64
}

// SeedRange returns the seeds lo..hi inclusive.
func SeedRange(lo, hi int64) []int64 {
	if hi < lo {
		return nil
	}
	// Counted, not compared against hi: s <= hi holds for every int64
	// when hi is MaxInt64, so a seed loop would wrap and never end.
	out := make([]int64, hi-lo+1)
	for i := range out {
		out[i] = lo + int64(i)
	}
	return out
}

// Expand returns every point of the sweep as a concrete RunConfig.
func (s Sweep) Expand() []RunConfig {
	govs := s.Governors
	if len(govs) == 0 {
		govs = []GovernorID{s.Base.Governor}
	}
	nets := s.Nets
	if len(nets) == 0 {
		nets = []NetKind{s.Base.Net}
	}
	devs := s.Devices
	if len(devs) == 0 {
		devs = []cpu.Model{s.Base.Device}
	}
	titles := s.Titles
	if len(titles) == 0 {
		titles = []video.Title{s.Base.Title}
	}
	rungs := s.Rungs
	if len(rungs) == 0 {
		rungs = []video.Resolution{s.Base.Rung}
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []int64{s.Base.Seed}
	}
	out := make([]RunConfig, 0, len(govs)*len(nets)*len(devs)*len(titles)*len(rungs)*len(seeds))
	for _, gov := range govs {
		for _, net := range nets {
			for _, dev := range devs {
				for _, title := range titles {
					for _, rung := range rungs {
						for _, seed := range seeds {
							cfg := s.Base
							cfg.Governor = gov
							cfg.Net = net
							cfg.Device = dev
							cfg.Title = title
							cfg.Rung = rung
							cfg.Seed = seed
							out = append(out, cfg)
						}
					}
				}
			}
		}
	}
	return out
}

package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"videodvfs/internal/cohort"
	"videodvfs/internal/cpu"
	"videodvfs/internal/experiments"
	"videodvfs/internal/netsim"
	"videodvfs/internal/sim"
	"videodvfs/internal/video"
)

// ErrBadRequest reports a request body the decoder rejected before any
// simulation semantics were involved: malformed JSON, unknown fields,
// trailing garbage. Semantic violations surface as
// experiments.ErrInvalidConfig instead; both map to HTTP 400.
var ErrBadRequest = errors.New("bad request")

// RunRequest is the wire form of one simulation request. Every field is
// optional; zero values inherit the library default (DefaultRunConfig),
// so `{}` runs the evaluation's base case. Built-in devices, titles, and
// rungs are referenced by name — the service owns the catalogs, clients
// own only the selection.
type RunRequest struct {
	// Device names a built-in CPU model ("flagship", "midrange",
	// "efficient").
	Device string `json:"device,omitempty"`
	// Governor selects the frequency policy (videodvfs.GovernorNames).
	Governor string `json:"governor,omitempty"`
	// Title names a built-in content profile ("news", "sports",
	// "animation").
	Title string `json:"title,omitempty"`
	// Rung names the pinned rendition ("360p" … "1080p") under fixed ABR.
	Rung string `json:"rung,omitempty"`
	// ABR selects the adaptation algorithm ("fixed", "rate", "bba").
	ABR string `json:"abr,omitempty"`
	// Net selects the bandwidth profile ("wifi", "const8", "lte",
	// "umts", "trace").
	Net string `json:"net,omitempty"`
	// BWTrace is the recorded bandwidth trace replayed when Net is
	// "trace" (required then, rejected otherwise) — the JSONL sample
	// lines of a dvfsstress recording, inline. Trace-backed requests
	// stay cacheable: the samples hash into the canonical config key.
	BWTrace []BWSample `json:"bw_trace,omitempty"`
	// DurationS is the content length in seconds (0 = 60).
	DurationS float64 `json:"duration_s,omitempty"`
	// Seed drives all stochastic inputs (0 = 1).
	Seed int64 `json:"seed,omitempty"`
	// Codec selects the decode model ("h264", "hevc").
	Codec string `json:"codec,omitempty"`
	// CStates enables the cpuidle model.
	CStates bool `json:"cstates,omitempty"`
	// LowLatency switches the player to live-streaming thresholds.
	LowLatency bool `json:"low_latency,omitempty"`
	// Thermal attaches the default RC thermal model + throttler.
	Thermal bool `json:"thermal,omitempty"`
	// Background toggles the UI/OS load generator (unset = on, the
	// evaluation default).
	Background *bool `json:"background,omitempty"`
	// SegmentDurS overrides the media segment duration in seconds.
	SegmentDurS float64 `json:"segment_dur_s,omitempty"`
	// FPS overrides the frame rate.
	FPS float64 `json:"fps,omitempty"`
	// HorizonS caps virtual time in seconds; the server clamps it to its
	// own maximum either way (see Config.MaxHorizon).
	HorizonS float64 `json:"horizon_s,omitempty"`
	// DecodedQueueCap overrides the player's decode-ahead depth.
	DecodedQueueCap int `json:"decoded_queue_cap,omitempty"`
	// LowWaterSec enables the player's burst-prefetch hysteresis.
	LowWaterSec float64 `json:"low_water_sec,omitempty"`
	// Forecast arms the predictive download scheduler ("oracle",
	// "noisy"); requires LowWaterSec.
	Forecast string `json:"forecast,omitempty"`
	// ForecastLookaheadS is the forecast lookahead window in seconds
	// (0 = the library default).
	ForecastLookaheadS float64 `json:"forecast_lookahead_s,omitempty"`
	// ForecastRelErr is the noisy forecast's relative error (noisy only).
	ForecastRelErr float64 `json:"forecast_rel_err,omitempty"`
	// ForecastSeed perturbs the noisy forecast's error draw
	// (0 = the run seed's stream).
	ForecastSeed int64 `json:"forecast_seed,omitempty"`
	// Policy overrides individual energy-aware governor knobs.
	Policy *PolicyRequest `json:"policy,omitempty"`
}

// BWSample is the wire form of one recorded bandwidth-trace chunk,
// mirroring the JSONL trace format (netsim.TraceSample): [t0, t1) in
// seconds on the recording's timeline, payload bytes, and the index of
// the download the chunk belonged to.
type BWSample struct {
	T0    float64 `json:"t0"`
	T1    float64 `json:"t1"`
	Bytes float64 `json:"bytes"`
	Fetch int     `json:"fetch"`
}

// PolicyRequest overrides individual fields of the energy-aware
// governor's tuning; nil fields keep the paper default.
type PolicyRequest struct {
	Margin          *float64 `json:"margin,omitempty"`
	SigmaK          *float64 `json:"sigma_k,omitempty"`
	Alpha           *float64 `json:"alpha,omitempty"`
	GuardMs         *float64 `json:"guard_ms,omitempty"`
	TargetQueueFrac *float64 `json:"target_queue_frac,omitempty"`
	SprintFrames    *float64 `json:"sprint_frames,omitempty"`
	RaceToIdle      *bool    `json:"race_to_idle,omitempty"`
	StartupBoost    *bool    `json:"startup_boost,omitempty"`
	MinOPP          *int     `json:"min_opp,omitempty"`
}

// Config resolves the request against the built-in catalogs into a
// concrete, validated RunConfig. Catalog misses and semantic violations
// return errors wrapping experiments.ErrInvalidConfig.
func (r RunRequest) Config() (experiments.RunConfig, error) {
	cfg := experiments.DefaultRunConfig()
	if r.Device != "" {
		dev, err := cpu.DeviceByName(r.Device)
		if err != nil {
			return cfg, fmt.Errorf("server: %w: %w", experiments.ErrInvalidConfig, err)
		}
		cfg.Device = dev
	}
	if r.Governor != "" {
		gov, err := experiments.ParseGovernorID(r.Governor)
		if err != nil {
			return cfg, fmt.Errorf("server: %w: %w", experiments.ErrInvalidConfig, err)
		}
		cfg.Governor = gov
	}
	if r.Title != "" {
		title, err := video.TitleByName(r.Title)
		if err != nil {
			return cfg, fmt.Errorf("server: %w: %w", experiments.ErrInvalidConfig, err)
		}
		cfg.Title = title
	}
	if r.Rung != "" {
		rung, err := video.ResolutionByName(r.Rung)
		if err != nil {
			return cfg, fmt.Errorf("server: %w: %w", experiments.ErrInvalidConfig, err)
		}
		cfg.Rung = rung
	}
	if r.ABR != "" {
		abr, err := experiments.ParseABRID(r.ABR)
		if err != nil {
			return cfg, fmt.Errorf("server: %w: %w", experiments.ErrInvalidConfig, err)
		}
		cfg.ABR = abr
	}
	if r.Net != "" {
		net, err := experiments.ParseNetKind(r.Net)
		if err != nil {
			return cfg, fmt.Errorf("server: %w: %w", experiments.ErrInvalidConfig, err)
		}
		cfg.Net = net
	}
	if len(r.BWTrace) > 0 {
		tr := &netsim.Trace{Samples: make([]netsim.TraceSample, len(r.BWTrace))}
		for i, s := range r.BWTrace {
			tr.Samples[i] = netsim.TraceSample{
				Start: sim.Time(s.T0),
				End:   sim.Time(s.T1),
				Bytes: s.Bytes,
				Fetch: s.Fetch,
			}
		}
		// Sample-level and net-consistency validation happen in
		// cfg.Validate below, through the standard taxonomy.
		cfg.BWTrace = tr
	}
	if r.DurationS != 0 {
		cfg.Duration = sim.Time(r.DurationS) * sim.Second
	}
	if r.Seed != 0 {
		cfg.Seed = r.Seed
	}
	cfg.Codec = r.Codec
	cfg.CStates = r.CStates
	cfg.LowLatency = r.LowLatency
	if r.Thermal {
		th := cpu.DefaultThermalConfig()
		cfg.Thermal = &th
	}
	if r.Background != nil {
		cfg.Background = *r.Background
	}
	if r.SegmentDurS != 0 {
		cfg.SegmentDur = sim.Time(r.SegmentDurS) * sim.Second
	}
	cfg.FPS = r.FPS
	if r.HorizonS != 0 {
		cfg.Horizon = sim.Time(r.HorizonS) * sim.Second
	}
	cfg.DecodedQueueCap = r.DecodedQueueCap
	cfg.LowWaterSec = r.LowWaterSec
	if r.Forecast != "" {
		fc, err := experiments.ParseForecastKind(r.Forecast)
		if err != nil {
			return cfg, fmt.Errorf("server: %w: %w", experiments.ErrInvalidConfig, err)
		}
		cfg.Forecast = fc
	}
	if r.ForecastLookaheadS != 0 {
		cfg.ForecastLookahead = sim.Time(r.ForecastLookaheadS) * sim.Second
	}
	cfg.ForecastRelErr = r.ForecastRelErr
	cfg.ForecastSeed = r.ForecastSeed
	if p := r.Policy; p != nil {
		if p.Margin != nil {
			cfg.Policy.Margin = *p.Margin
		}
		if p.SigmaK != nil {
			cfg.Policy.SigmaK = *p.SigmaK
		}
		if p.Alpha != nil {
			cfg.Policy.Alpha = *p.Alpha
		}
		if p.GuardMs != nil {
			cfg.Policy.Guard = sim.Time(*p.GuardMs) * sim.Millisecond
		}
		if p.TargetQueueFrac != nil {
			cfg.Policy.TargetQueueFrac = *p.TargetQueueFrac
		}
		if p.SprintFrames != nil {
			cfg.Policy.SprintFrames = *p.SprintFrames
		}
		if p.RaceToIdle != nil {
			cfg.Policy.RaceToIdle = *p.RaceToIdle
		}
		if p.StartupBoost != nil {
			cfg.Policy.StartupBoost = *p.StartupBoost
		}
		if p.MinOPP != nil {
			cfg.Policy.MinOPP = *p.MinOPP
		}
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// SweepRequest is the wire form of a batch sweep: a base request plus
// axis lists, which Configs expands through experiments.Sweep.Expand into
// their cross product (governor-major, seed-minor).
type SweepRequest struct {
	// Base is the config template every point starts from.
	Base RunRequest `json:"base"`
	// Governors, Nets, Devices, Titles, Rungs are the swept axes; nil
	// keeps the base value.
	Governors []string `json:"governors,omitempty"`
	Nets      []string `json:"nets,omitempty"`
	Devices   []string `json:"devices,omitempty"`
	Titles    []string `json:"titles,omitempty"`
	Rungs     []string `json:"rungs,omitempty"`
	// Seeds is the explicit seed axis.
	Seeds []int64 `json:"seeds,omitempty"`
	// SeedRange expands to the seeds [lo, hi] inclusive; mutually
	// exclusive with Seeds.
	SeedRange *[2]int64 `json:"seed_range,omitempty"`
}

// maxSweepSize is where Size saturates: larger than any sweep cap, and
// small enough that no count below it overflows.
const maxSweepSize = 1 << 62

// Size returns how many runs the sweep expands to, without expanding —
// the admission check happens before any per-point allocation. It
// saturates at 2^62 instead of overflowing; below that it equals
// len(Configs()) whenever Configs succeeds. The seed axis is seed_range
// when set (the base seed alone when it is empty), else the explicit
// seeds, else the base seed alone.
func (r SweepRequest) Size() int64 {
	seeds := uint64(1)
	switch {
	case r.SeedRange != nil && r.SeedRange[0] <= r.SeedRange[1]:
		// The unsigned difference is exact for any lo ≤ hi; hi-lo+1 in
		// int64 overflows for ranges wider than half the seed space.
		seeds = min(uint64(r.SeedRange[1])-uint64(r.SeedRange[0]), maxSweepSize-1) + 1
	case r.SeedRange == nil && len(r.Seeds) > 0:
		seeds = uint64(len(r.Seeds))
	}
	size := uint64(1)
	for _, n := range [...]uint64{uint64(len(r.Governors)), uint64(len(r.Nets)), uint64(len(r.Devices)),
		uint64(len(r.Titles)), uint64(len(r.Rungs)), seeds} {
		n = max(n, 1)
		if size > maxSweepSize/n {
			return maxSweepSize
		}
		size *= n
	}
	return int64(size)
}

// Configs expands the sweep into concrete validated RunConfigs.
func (r SweepRequest) Configs() ([]experiments.RunConfig, error) {
	base, err := r.Base.Config()
	if err != nil {
		return nil, fmt.Errorf("server: sweep base: %w", err)
	}
	sw := experiments.Sweep{Base: base}
	for _, g := range r.Governors {
		gov, err := experiments.ParseGovernorID(g)
		if err != nil {
			return nil, fmt.Errorf("server: %w: %w", experiments.ErrInvalidConfig, err)
		}
		sw.Governors = append(sw.Governors, gov)
	}
	for _, n := range r.Nets {
		net, err := experiments.ParseNetKind(n)
		if err != nil {
			return nil, fmt.Errorf("server: %w: %w", experiments.ErrInvalidConfig, err)
		}
		sw.Nets = append(sw.Nets, net)
	}
	for _, d := range r.Devices {
		dev, err := cpu.DeviceByName(d)
		if err != nil {
			return nil, fmt.Errorf("server: %w: %w", experiments.ErrInvalidConfig, err)
		}
		sw.Devices = append(sw.Devices, dev)
	}
	for _, tn := range r.Titles {
		title, err := video.TitleByName(tn)
		if err != nil {
			return nil, fmt.Errorf("server: %w: %w", experiments.ErrInvalidConfig, err)
		}
		sw.Titles = append(sw.Titles, title)
	}
	for _, rn := range r.Rungs {
		rung, err := video.ResolutionByName(rn)
		if err != nil {
			return nil, fmt.Errorf("server: %w: %w", experiments.ErrInvalidConfig, err)
		}
		sw.Rungs = append(sw.Rungs, rung)
	}
	switch {
	case len(r.Seeds) > 0 && r.SeedRange != nil:
		return nil, fmt.Errorf("server: %w: seeds and seed_range are mutually exclusive", experiments.ErrInvalidConfig)
	case len(r.Seeds) > 0:
		sw.Seeds = r.Seeds
	case r.SeedRange != nil:
		if r.SeedRange[1] < r.SeedRange[0] {
			return nil, fmt.Errorf("server: %w: seed_range [%d, %d] is empty",
				experiments.ErrInvalidConfig, r.SeedRange[0], r.SeedRange[1])
		}
		sw.Seeds = experiments.SeedRange(r.SeedRange[0], r.SeedRange[1])
	}
	cfgs := sw.Expand()
	for i := range cfgs {
		if err := cfgs[i].Validate(); err != nil {
			return nil, fmt.Errorf("server: sweep point %d: %w", i, err)
		}
	}
	return cfgs, nil
}

// CohortRequest is the wire form of one cohort run: a base per-viewer
// request plus population, arrival process, shared-cell contention, and
// rollup cadence. Zero values inherit the cohort defaults (1000 viewers
// all joining at t=0, 10 s rollups).
type CohortRequest struct {
	// Base is the per-viewer session template; `{}` is the evaluation's
	// base case.
	Base RunRequest `json:"base"`
	// Viewers is the cohort size (0 = 1000).
	Viewers int `json:"viewers,omitempty"`
	// Arrival names the join process: "all" (default), "uniform",
	// "burst", "poisson".
	Arrival string `json:"arrival,omitempty"`
	// ArrivalWindowS is the join window in virtual seconds (uniform,
	// burst).
	ArrivalWindowS float64 `json:"arrival_window_s,omitempty"`
	// ArrivalRatePerSec is the mean join rate (poisson).
	ArrivalRatePerSec float64 `json:"arrival_rate_per_sec,omitempty"`
	// Cell, when set, makes viewers contend for shared sector bandwidth.
	Cell *CellRequest `json:"cell,omitempty"`
	// Shards overrides the engine-shard count (0 = derived; part of the
	// result identity).
	Shards int `json:"shards,omitempty"`
	// RollupS is the aggregate-snapshot cadence in virtual seconds
	// (0 = 10).
	RollupS float64 `json:"rollup_s,omitempty"`
	// Seed drives the per-viewer seed split (0 = the base seed).
	Seed int64 `json:"seed,omitempty"`
}

// CellRequest is the wire form of a shared radio sector model.
type CellRequest struct {
	// CapacityMbps is each sector's shared downlink capacity.
	CapacityMbps float64 `json:"capacity_mbps"`
	// PerViewerMbps caps one viewer's share (0 = capacity).
	PerViewerMbps float64 `json:"per_viewer_mbps,omitempty"`
	// Sectors spreads the cohort over this many independent sectors
	// (0 = 1).
	Sectors int `json:"sectors,omitempty"`
}

// Config resolves the request into a concrete validated cohort.Config.
func (r CohortRequest) Config() (cohort.Config, error) {
	base, err := r.Base.Config()
	if err != nil {
		return cohort.Config{}, fmt.Errorf("server: cohort base: %w", err)
	}
	cfg := cohort.DefaultConfig()
	cfg.Base = base
	if r.Viewers != 0 {
		cfg.Viewers = r.Viewers
	}
	cfg.Arrival = cohort.Arrival{
		Kind:       cohort.ArrivalKind(r.Arrival),
		Window:     sim.Time(r.ArrivalWindowS) * sim.Second,
		RatePerSec: r.ArrivalRatePerSec,
	}
	if c := r.Cell; c != nil {
		cfg.Cell = &cohort.Cell{
			CapacityMbps:  c.CapacityMbps,
			PerViewerMbps: c.PerViewerMbps,
			Sectors:       c.Sectors,
		}
	}
	cfg.Shards = r.Shards
	if r.RollupS != 0 {
		cfg.Rollup = sim.Time(r.RollupS) * sim.Second
	}
	cfg.Seed = r.Seed
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// CohortPartRequest is the wire form of a partial cohort run: the whole
// cohort's spec plus the shard indexes this worker should execute. The
// cohort spec must be complete — the shard layout is derived from it, so
// every worker in a fleet-sharded cohort receives the same spec and a
// disjoint shard set. (The cohort nests under its own key rather than
// embedding, because CohortRequest's shards field — the shard-count
// override — must stay addressable.)
type CohortPartRequest struct {
	// Cohort is the whole cohort's request, exactly as a /v1/cohort body.
	Cohort CohortRequest `json:"cohort"`
	// Shards names the shard indexes to execute (non-empty, each in
	// [0, shard count)).
	Shards []int `json:"shards"`
}

// SweepPartRequest is the wire form of a partial sweep: the whole sweep's
// request plus the expansion indexes of the points this worker should
// run. Every worker in a fleet-sharded sweep receives the same sweep and
// a disjoint point set, as with CohortPartRequest.
type SweepPartRequest struct {
	// Sweep is the whole sweep's request, exactly as a /v1/sweep body.
	Sweep SweepRequest `json:"sweep"`
	// Points names the expansion indexes to run (non-empty, distinct,
	// each in [0, Size())); the answer holds one line per point, in this
	// order.
	Points []int `json:"points"`
}

// SweepPartBody is the /v1/sweep/part body asking for points of the sweep
// whose /v1/sweep body is sweep. The sweep nests as the client sent it, so
// a worker decodes exactly the bytes a single node would, and the part is
// never longer than that body plus its index list: the cap a worker puts
// on parts (Server.sweepPartBytes) admits every sweep MaxBodyBytes does.
// Re-encoding the decoded request could grow it (a 1e20 spells out as 21
// digits).
func SweepPartBody(sweep []byte, points []int) []byte {
	body := make([]byte, 0, len(sweep)+32+8*len(points))
	body = append(body, `{"sweep":`...)
	body = append(body, sweep...)
	body = append(body, `,"points":[`...)
	for i, p := range points {
		if i > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendInt(body, int64(p), 10)
	}
	return append(body, "]}"...)
}

// checkPoints refuses a part's point list before anything runs: it must
// name at least one point, none twice, and each in [0, n). Errors wrap
// experiments.ErrInvalidConfig.
func checkPoints(points []int, n int) error {
	if len(points) == 0 {
		return fmt.Errorf("server: %w: the part names no point", experiments.ErrInvalidConfig)
	}
	seen := make([]bool, n)
	for _, p := range points {
		if p < 0 || p >= n {
			return fmt.Errorf("server: %w: point %d outside the sweep's %d", experiments.ErrInvalidConfig, p, n)
		}
		if seen[p] {
			return fmt.Errorf("server: %w: point %d named twice", experiments.ErrInvalidConfig, p)
		}
		seen[p] = true
	}
	return nil
}

// decodeStrict unmarshals exactly one JSON value from r into v, rejecting
// unknown fields and trailing data. Errors wrap ErrBadRequest.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("server: %w: %w", ErrBadRequest, err)
	}
	// Decoder.More reports no more data at a stray '}' or ']', so `{}}`
	// would pass it; only a clean end of input after one more token does.
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case err == nil:
		return fmt.Errorf("server: %w: trailing data after JSON body", ErrBadRequest)
	default:
		return fmt.Errorf("server: %w: trailing data after JSON body: %w", ErrBadRequest, err)
	}
}

// DecodeRunRequest parses one RunRequest from r (strict mode: unknown
// fields and trailing data are errors wrapping ErrBadRequest).
func DecodeRunRequest(r io.Reader) (RunRequest, error) {
	var req RunRequest
	err := decodeStrict(r, &req)
	return req, err
}

// DecodeSweepRequest parses one SweepRequest from r under the same strict
// rules as DecodeRunRequest.
func DecodeSweepRequest(r io.Reader) (SweepRequest, error) {
	var req SweepRequest
	err := decodeStrict(r, &req)
	return req, err
}

// DecodeSweepPartRequest parses one SweepPartRequest from r under the
// same strict rules as DecodeRunRequest.
func DecodeSweepPartRequest(r io.Reader) (SweepPartRequest, error) {
	var req SweepPartRequest
	err := decodeStrict(r, &req)
	return req, err
}

// DecodeCohortRequest parses one CohortRequest from r under the same
// strict rules as DecodeRunRequest.
func DecodeCohortRequest(r io.Reader) (CohortRequest, error) {
	var req CohortRequest
	err := decodeStrict(r, &req)
	return req, err
}

// DecodeCohortPartRequest parses one CohortPartRequest from r under the
// same strict rules as DecodeRunRequest.
func DecodeCohortPartRequest(r io.Reader) (CohortPartRequest, error) {
	var req CohortPartRequest
	err := decodeStrict(r, &req)
	return req, err
}

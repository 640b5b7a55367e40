// Package videodvfs is an energy-aware CPU frequency scaling (DVFS) policy
// for mobile video streaming, together with the full simulation substrate
// needed to evaluate it: a mobile SoC CPU model with OPP tables and a
// calibrated power curve, faithful re-implementations of the Linux cpufreq
// governors, a synthetic-but-calibrated video decode workload, a streaming
// player with ABR, and a 3G/LTE radio model with RRC state power
// accounting.
//
// The headline API is Run: configure a streaming session (device,
// governor, content, network) and get back energy and QoE. Experiment
// regenerates any table or figure of the evaluation.
//
//	res, err := videodvfs.Run(videodvfs.DefaultSession())
//	if err != nil { ... }
//	fmt.Printf("CPU energy: %.1f J, dropped: %d\n", res.CPUJ, res.QoE.DroppedFrames)
//
// The policy itself lives in internal/core and plugs into the player via
// session hooks; see DESIGN.md for the architecture and EXPERIMENTS.md for
// the reproduced evaluation.
package videodvfs

import (
	"io"

	"videodvfs/internal/core"
	"videodvfs/internal/cpu"
	"videodvfs/internal/experiments"
	"videodvfs/internal/invariant"
	"videodvfs/internal/netsim"
	"videodvfs/internal/player"
	"videodvfs/internal/sim"
	"videodvfs/internal/trace"
	"videodvfs/internal/video"
)

// Aliases exposing the library's data types through the public package.
type (
	// Device is a CPU model: OPP table, power curve, DVFS latency.
	Device = cpu.Model
	// OPP is one CPU operating performance point.
	OPP = cpu.OPP
	// PolicyConfig tunes the energy-aware governor.
	PolicyConfig = core.Config
	// Title is a video content profile.
	Title = video.Title
	// Resolution is a frame-size preset.
	Resolution = video.Resolution
	// QoE is the player's quality-of-experience report.
	QoE = player.Metrics
	// RunConfig describes one streaming simulation.
	RunConfig = experiments.RunConfig
	// RunResult is the outcome of one streaming simulation.
	RunResult = experiments.RunResult
	// Table is a reproduced table or figure.
	Table = experiments.Table
	// NetKind selects a bandwidth profile.
	NetKind = experiments.NetKind
	// Time is a virtual-time instant or span in seconds.
	Time = sim.Time
	// ClusterResult is the outcome of a big.LITTLE session.
	ClusterResult = experiments.ClusterResult
	// BatchOutcome pairs one RunConfig with its result or error in a
	// batch.
	BatchOutcome = experiments.Outcome
	// Stream is an exact frame-by-frame video trace (RunConfig.Trace).
	Stream = video.Stream
	// BWTrace is a recorded bandwidth trace (RunConfig.BWTrace) replayed
	// when Net is NetTrace; record one with the dvfsstress player-driver
	// and load it with ReadBWTrace.
	BWTrace = netsim.Trace
	// BWSample is one contiguous delivery window of a BWTrace.
	BWSample = netsim.TraceSample
	// Governor is a typed governor identifier; see ParseGovernor.
	Governor = experiments.GovernorID
	// ForecastKind is a typed bandwidth-forecast identifier; see
	// ParseForecast.
	ForecastKind = experiments.ForecastKind
	// ABR is a typed adaptation-algorithm identifier; see ParseABR.
	ABR = experiments.ABRID
	// Tracer receives a run's structured event stream; see RunConfig.Tracer
	// and the sink constructor NewJSONLTracer.
	Tracer = trace.Tracer
	// TraceSink is a Tracer bound to an output that must be closed after
	// the run to flush buffered events.
	TraceSink = trace.Sink
	// Violation is a broken simulator invariant reported by a strict run
	// (RunConfig.Strict): the rule, the virtual time, and the observed vs
	// expected values. Unwrap with errors.As.
	Violation = invariant.Violation
)

// Governor identifiers accepted by RunConfig.Governor.
const (
	// GovPerformance pins the top OPP.
	GovPerformance = experiments.GovPerformance
	// GovPowersave pins the bottom OPP.
	GovPowersave = experiments.GovPowersave
	// GovOndemand is the sampling-based stock default.
	GovOndemand = experiments.GovOndemand
	// GovConservative is ondemand with gradual steps.
	GovConservative = experiments.GovConservative
	// GovInteractive is the Android-era touch-boost governor.
	GovInteractive = experiments.GovInteractive
	// GovSchedutil is the scheduler-utilization governor.
	GovSchedutil = experiments.GovSchedutil
	// GovEnergyAware is the paper's video-aware policy.
	GovEnergyAware = experiments.GovEnergyAware
	// GovOracle is the offline-optimal reference.
	GovOracle = experiments.GovOracle
)

// ABR identifiers accepted by RunConfig.ABR.
const (
	// ABRFixed pins one rendition (RunConfig.Rung).
	ABRFixed = experiments.ABRFixed
	// ABRRate is the classic throughput-rule algorithm.
	ABRRate = experiments.ABRRate
	// ABRBBA is the buffer-based BBA-0 style algorithm.
	ABRBBA = experiments.ABRBBA
)

// Network profiles.
const (
	// NetWiFi is a steady 30 Mbps link.
	NetWiFi = experiments.NetWiFi
	// NetLTE is a Markov-modulated LTE trace.
	NetLTE = experiments.NetLTE
	// NetUMTS is a Markov-modulated 3G trace.
	NetUMTS = experiments.NetUMTS
	// NetConst8 is a constant 8 Mbps link.
	NetConst8 = experiments.NetConst8
	// NetTrace replays a recorded bandwidth trace (RunConfig.BWTrace).
	NetTrace = experiments.NetTrace
)

// Bandwidth-forecast kinds accepted by RunConfig.Forecast; requires a
// low-water mark (RunConfig.LowWaterSec).
const (
	// ForecastNone disables forecasting: the player keeps the reactive
	// low-water burst trigger.
	ForecastNone = experiments.ForecastNone
	// ForecastOracle is the perfect forecast derived from the run's own
	// bandwidth model.
	ForecastOracle = experiments.ForecastOracle
	// ForecastNoisy is the oracle degraded by seeded multiplicative error
	// (RunConfig.ForecastRelErr); deterministic, so still cacheable.
	ForecastNoisy = experiments.ForecastNoisy
)

// Common time spans.
const (
	// Millisecond is one virtual millisecond.
	Millisecond = sim.Millisecond
	// Second is one virtual second.
	Second = sim.Second
	// Minute is one virtual minute.
	Minute = sim.Minute
)

// DeviceByName returns a built-in CPU model.
func DeviceByName(name string) (Device, error) { return cpu.DeviceByName(name) }

// TitleByName returns a built-in content profile.
func TitleByName(name string) (Title, error) { return video.TitleByName(name) }

// ResolutionByName returns a standard resolution.
func ResolutionByName(name string) (Resolution, error) { return video.ResolutionByName(name) }

// Governors returns every governor Run accepts, in report order: the
// stock baselines followed by GovEnergyAware and GovOracle.
func Governors() []Governor { return experiments.GovernorIDs() }

// GovernorNames returns Governors as plain strings, for CLI usage lines
// and flag validation messages.
func GovernorNames() []string {
	ids := experiments.GovernorIDs()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id)
	}
	return out
}

// ParseGovernor validates a governor name from an untrusted source
// (flags, config files). Unknown names return an error matching
// ErrUnknownGovernor.
func ParseGovernor(name string) (Governor, error) { return experiments.ParseGovernorID(name) }

// ParseABR validates an ABR name from an untrusted source. The empty
// string parses as ABRFixed; unknown names return an error matching
// ErrUnknownABR.
func ParseABR(name string) (ABR, error) { return experiments.ParseABRID(name) }

// ParseNet validates a network-profile name from an untrusted source.
// The empty string parses as NetWiFi (Run's default); unknown names
// return an error matching ErrUnknownNet.
func ParseNet(name string) (NetKind, error) { return experiments.ParseNetKind(name) }

// ParseForecast validates a forecast-kind name from an untrusted source.
// The empty string parses as ForecastNone (forecasting off, Run's
// default); unknown names return an error matching ErrUnknownForecast.
func ParseForecast(name string) (ForecastKind, error) { return experiments.ParseForecastKind(name) }

// Typed sentinel errors; distinguish with errors.Is.
var (
	// ErrUnknownGovernor reports a governor name outside Governors().
	ErrUnknownGovernor = experiments.ErrUnknownGovernor
	// ErrUnknownABR reports an ABR name outside the ABR constants.
	ErrUnknownABR = experiments.ErrUnknownABR
	// ErrUnknownNet reports a network-profile name outside the Net
	// constants.
	ErrUnknownNet = experiments.ErrUnknownNet
	// ErrUnknownForecast reports a forecast-kind name outside the
	// Forecast constants.
	ErrUnknownForecast = experiments.ErrUnknownForecast
	// ErrInvalidConfig reports a RunConfig rejected by validation before
	// any simulation state was built.
	ErrInvalidConfig = experiments.ErrInvalidConfig
)

// ReadBWTrace decodes a recorded bandwidth trace from its JSONL wire
// form (dvfsstress play -out). The result validates before returning.
func ReadBWTrace(r io.Reader) (BWTrace, error) { return netsim.ReadTrace(r) }

// WriteBWTrace encodes a bandwidth trace in the canonical JSONL form:
// encoding is byte-stable, so equal traces produce equal files.
func WriteBWTrace(w io.Writer, t BWTrace) error { return netsim.WriteTrace(w, t) }

// NewJSONLTracer returns a tracer serializing every event as one JSON
// line on w, in a fixed key order so same-seed runs produce byte-identical
// output. Close it after the run to flush.
func NewJSONLTracer(w io.Writer) TraceSink { return trace.NewJSONL(w) }

// DefaultPolicy returns the paper-default tuning of the energy-aware
// governor.
func DefaultPolicy() PolicyConfig { return core.DefaultConfig() }

// DefaultSession returns the evaluation's base case: flagship device,
// energy-aware governor, 720p sports over a constant 8 Mbps link, 60 s.
// A run is configured by assigning fields of the returned RunConfig.
func DefaultSession() RunConfig { return experiments.DefaultRunConfig() }

// Run executes one streaming simulation. Internally it draws a recycled
// simulation arena (an internal experiments.Session) from a pool, so
// back-to-back runs skip reconstruction; results are bit-identical to a
// fresh simulator's.
func Run(cfg RunConfig) (RunResult, error) { return experiments.Run(cfg) }

// ErrHorizonExceeded reports a session still incomplete when the
// simulation horizon cut the run off; distinguish it with errors.Is.
var ErrHorizonExceeded = experiments.ErrHorizonExceeded

// ErrCanceled reports a run (or cohort) abandoned through its Cancel
// channel before completion; distinguish it with errors.Is.
var ErrCanceled = experiments.ErrCanceled

// RunAll executes configs across a worker pool (workers ≤ 0 =
// GOMAXPROCS) and returns outcomes in input order. Runs are independent
// and seed-deterministic, so results are bit-identical for any worker
// count; a failing or panicking run marks only its own slot.
func RunAll(cfgs []RunConfig, workers int) []BatchOutcome {
	return experiments.RunAll(cfgs, workers)
}

// RunCluster simulates a streaming session on a big.LITTLE device
// (flagship big + efficient little). With clusterAware set, the
// cluster-extension governor places decode work across both domains;
// otherwise the single-core policy drives the big cluster only. Like
// Run, it fails with ErrHorizonExceeded when the session cannot finish.
func RunCluster(res Resolution, dur Time, seed int64, clusterAware bool) (ClusterResult, error) {
	return experiments.RunCluster(res, dur, seed, clusterAware)
}

// ExperimentIDs lists the reproducible tables and figures in report order.
func ExperimentIDs() []string { return experiments.IDs() }

// Experiment regenerates one table or figure by ID; ExperimentIDs lists them.
func Experiment(id string) (Table, error) {
	b, err := experiments.Get(id)
	if err != nil {
		return Table{}, err
	}
	return b()
}

// Package player composes the streaming pipeline: segment download with
// ABR, the media buffer, the decode-ahead worker, and a display that
// consumes decoded frames at the frame rate, stalling on empty buffers and
// dropping late frames. It produces the QoE metrics the evaluation
// reports alongside energy.
package player

import (
	"fmt"

	"videodvfs/internal/abr"
	"videodvfs/internal/decode"
	"videodvfs/internal/energy"
	"videodvfs/internal/sim"
	"videodvfs/internal/trace"
	"videodvfs/internal/video"
)

// SessionHooks is the player-side integration surface for video-aware
// governors: decoder lifecycle plus playback and download transitions.
type SessionHooks interface {
	decode.Hooks
	// StreamInfo announces stream parameters once, before fetching
	// begins.
	StreamInfo(fps float64, totalFrames int)
	// PlaybackState fires when playback starts, stalls, resumes, or ends.
	PlaybackState(now sim.Time, playing bool)
	// DownloadActivity fires when the segment downloader goes busy/idle.
	DownloadActivity(now sim.Time, active bool)
	// BufferState fires when buffer occupancy changes materially (each
	// displayed frame and each segment arrival).
	BufferState(now sim.Time, mediaSec float64, readyFrames, readyCap int)
}

// NopSessionHooks is an embeddable no-op SessionHooks.
type NopSessionHooks struct{ decode.NopHooks }

// StreamInfo implements SessionHooks.
func (NopSessionHooks) StreamInfo(float64, int) {}

// PlaybackState implements SessionHooks.
func (NopSessionHooks) PlaybackState(sim.Time, bool) {}

// DownloadActivity implements SessionHooks.
func (NopSessionHooks) DownloadActivity(sim.Time, bool) {}

// BufferState implements SessionHooks.
func (NopSessionHooks) BufferState(sim.Time, float64, int, int) {}

var _ SessionHooks = NopSessionHooks{}

// tracingHooks decorates SessionHooks with structured event emission:
// decode start/end become FrameEvents, buffer and playback callbacks
// become Buffer/Playback events. Events fire before the inner hooks so a
// governor's Decision lands after the frame's decode_start in the stream.
type tracingHooks struct {
	SessionHooks
	tr trace.Tracer
}

// DecodeStart implements decode.Hooks.
func (h tracingHooks) DecodeStart(now sim.Time, f video.Frame, deadline sim.Time, ready, queueCap int) {
	h.tr.Frame(trace.FrameEvent{T: now, Stage: trace.StageDecodeStart, Frame: f.Index, Type: f.Type, Deadline: deadline})
	h.SessionHooks.DecodeStart(now, f, deadline, ready, queueCap)
}

// DecodeEnd implements decode.Hooks.
func (h tracingHooks) DecodeEnd(now sim.Time, f video.Frame, deadline sim.Time, measuredCycles float64) {
	h.tr.Frame(trace.FrameEvent{T: now, Stage: trace.StageDecodeEnd, Frame: f.Index, Type: f.Type, Deadline: deadline, Cycles: measuredCycles})
	h.SessionHooks.DecodeEnd(now, f, deadline, measuredCycles)
}

// PlaybackState implements SessionHooks.
func (h tracingHooks) PlaybackState(now sim.Time, playing bool) {
	h.tr.Playback(trace.PlaybackEvent{T: now, Playing: playing})
	h.SessionHooks.PlaybackState(now, playing)
}

// BufferState implements SessionHooks.
func (h tracingHooks) BufferState(now sim.Time, mediaSec float64, readyFrames, readyCap int) {
	h.tr.Buffer(trace.BufferEvent{T: now, LevelSec: mediaSec, Ready: readyFrames, Cap: readyCap})
	h.SessionHooks.BufferState(now, mediaSec, readyFrames, readyCap)
}

// The session's fixed costs and smoothing.
const (
	// throughputAlpha is the EWMA smoothing for throughput estimates.
	throughputAlpha = 0.3
	// displayPowerW is the constant screen draw while the session runs
	// (metered if Config.Meter is set).
	displayPowerW = 1.0
)

// Config tunes a streaming session.
type Config struct {
	// StartupSec is the media buffer (seconds) required to begin
	// playback.
	StartupSec float64
	// ResumeSec is the media buffer required to resume after a stall.
	ResumeSec float64
	// MaxBufferSec caps prefetching.
	MaxBufferSec float64
	// LowWaterSec enables burst prefetching: after filling to
	// MaxBufferSec the player stays idle until the buffer drains to this
	// level, then refills in one burst. Bursting consolidates radio
	// activity so the RRC tail timers (or fast dormancy) can release the
	// channel between bursts. Zero disables hysteresis (continuous
	// trickle, one segment per segment-duration).
	LowWaterSec float64
	// DecodedQueueCap is the decode-ahead depth in frames — the slack
	// store of the energy-aware policy.
	DecodedQueueCap int
	// SegmentDur is the media segment duration.
	SegmentDur sim.Time
	// ABR selects rungs; Fixed pins one rendition.
	ABR abr.Algorithm
	// Forecast, when set, replaces the blind low-water burst trigger with
	// the predictive scheduler: instead of starting the refill exactly when
	// the buffer drains to LowWaterSec, the session scans the forecast for
	// the cheapest start that still meets the buffer deadline — racing
	// bursts into predicted good-channel windows and deferring through
	// fades the buffer can ride out. Requires LowWaterSec > 0 (the burst
	// structure the scheduler decides within). netsim.Oracle and
	// netsim.Noisy implement it.
	Forecast Forecast
	// Hooks receives governor callbacks; nil for baseline governors.
	Hooks SessionHooks
	// Meter, if set, receives display power.
	Meter *energy.Meter
	// Tracer, if set, receives frame lifecycle, ABR, buffer, playback,
	// and display-power events. nil (the default) disables tracing with
	// zero overhead on the playback path.
	Tracer trace.Tracer
}

// DefaultConfig returns the evaluation defaults: 4 s startup, 2 s resume,
// 30 s max buffer, 8-frame decode-ahead, 2 s segments, pinned top rung.
func DefaultConfig() Config {
	return Config{
		StartupSec:      4,
		ResumeSec:       2,
		MaxBufferSec:    30,
		DecodedQueueCap: 8,
		SegmentDur:      2 * sim.Second,
		ABR:             abr.Fixed{Rung: 0},
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.StartupSec <= 0 || c.ResumeSec <= 0 {
		return fmt.Errorf("player: startup (%v) and resume (%v) thresholds must be positive", c.StartupSec, c.ResumeSec)
	}
	if c.MaxBufferSec < c.StartupSec {
		return fmt.Errorf("player: max buffer %v below startup threshold %v", c.MaxBufferSec, c.StartupSec)
	}
	if c.LowWaterSec < 0 || c.LowWaterSec > c.MaxBufferSec {
		return fmt.Errorf("player: low water %v outside [0, max buffer %v]", c.LowWaterSec, c.MaxBufferSec)
	}
	if c.DecodedQueueCap < 1 {
		return fmt.Errorf("player: decoded queue cap %d < 1", c.DecodedQueueCap)
	}
	if c.SegmentDur <= 0 {
		return fmt.Errorf("player: segment duration %v not positive", c.SegmentDur)
	}
	if c.ABR == nil {
		return fmt.Errorf("player: ABR algorithm is required")
	}
	if c.Forecast != nil {
		if c.LowWaterSec <= 0 {
			return fmt.Errorf("player: forecast scheduling requires a positive low-water mark (burst hysteresis)")
		}
		if h := c.Forecast.Horizon(); !(h > 0 && h < sim.Forever) {
			return fmt.Errorf("player: forecast horizon %v not a positive finite duration", h)
		}
	}
	return nil
}

// Metrics is the QoE summary of a session.
type Metrics struct {
	// StartupDelay is the time from session start to the first displayed
	// frame.
	StartupDelay sim.Time
	// RebufferCount is the number of mid-playback stalls.
	RebufferCount int
	// RebufferTime is the total stalled time.
	RebufferTime sim.Time
	// DroppedFrames are display slots skipped because decode was late.
	DroppedFrames int
	// DisplayedFrames reached the screen on time.
	DisplayedFrames int
	// TotalFrames is the stream length in frames.
	TotalFrames int
	// RungSwitches counts ABR rendition changes.
	RungSwitches int
	// MeanRungBps is the mean bitrate of fetched segments.
	MeanRungBps float64
	// SessionDur is wall time from Start to the last displayed frame.
	SessionDur sim.Time
	// Completed reports whether the stream finished within the horizon.
	Completed bool
}

// DropRate returns dropped / total frames.
func (m Metrics) DropRate() float64 {
	if m.TotalFrames == 0 {
		return 0
	}
	return float64(m.DroppedFrames) / float64(m.TotalFrames)
}

// RebufferRatio returns stalled time over session time.
func (m Metrics) RebufferRatio() float64 {
	if m.SessionDur <= 0 {
		return 0
	}
	return float64(m.RebufferTime / m.SessionDur)
}

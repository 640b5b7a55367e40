// Package abr implements the adaptive-bitrate algorithms the streaming
// player can run: fixed-rung, throughput-based, and buffer-based (BBA-0
// style). ABR choice interacts with DVFS because the selected rung sets
// the decode demand; the evaluation shows the policy's savings hold under
// all three.
package abr

import (
	"fmt"
	"math"
)

// State is the player-side observation an algorithm decides from.
type State struct {
	// ThroughputBps is the player's smoothed throughput estimate. Before
	// the first segment completes the estimator is unwarmed and reports 0
	// (the EWMA warm-up contract: Value is 0 until the first sample), so
	// algorithms must treat a non-positive or non-finite value as cold
	// start and never derive a rung index from it — the defined cold-start
	// choice is the lowest rung.
	ThroughputBps float64
	// BufferSec is the media buffer level in seconds of content.
	BufferSec float64
	// LastRung is the rung index of the previous segment.
	LastRung int
	// Rates are the ladder bitrates in bps, ascending.
	Rates []float64
}

// Algorithm selects the rung for the next segment to download.
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// NextRung returns a valid index into s.Rates.
	NextRung(s State) int
}

// clampRung keeps an index inside the ladder.
func clampRung(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// Fixed always selects the same rung (used for the non-ABR experiments).
type Fixed struct {
	// Rung is the index to pin.
	Rung int
}

// Name implements Algorithm.
func (Fixed) Name() string { return "fixed" }

// NextRung implements Algorithm.
func (f Fixed) NextRung(s State) int { return clampRung(f.Rung, len(s.Rates)) }

// The adaptation rules' constants: the throughput rule's usable fraction
// of estimated throughput, and BBA-0's paper-standard buffer knees.
const (
	// rateSafety is the fraction of estimated throughput RateBased spends.
	rateSafety = 0.85
	// reservoirSec is the buffer level at or below which BufferBased
	// forces the lowest rung.
	reservoirSec = 5.0
	// cushionSec is the buffer level at or above which BufferBased allows
	// the highest rung.
	cushionSec = 15.0
)

// RateBased picks the highest rung whose bitrate fits under a safety
// fraction (0.85) of estimated throughput — the classic throughput-rule
// ABR.
type RateBased struct{}

// Name implements Algorithm.
func (RateBased) Name() string { return "rate" }

// NextRung implements Algorithm. On cold start — an unwarmed (0), NaN, or
// infinite throughput estimate — it returns the lowest rung explicitly:
// the first segment's rung choice is defined by contract, not by whatever
// 0×safety happens to compare as (and a spurious +Inf estimate must not
// launch the session at the top rung).
func (RateBased) NextRung(s State) int {
	if !(s.ThroughputBps > 0) || math.IsInf(s.ThroughputBps, 0) {
		return 0 // cold start or degenerate estimate
	}
	budget := s.ThroughputBps * rateSafety
	best := 0
	for i, rate := range s.Rates {
		if rate <= budget {
			best = i
		}
	}
	return best
}

// BufferBased is a BBA-0 style algorithm: rung is a piecewise-linear
// function of buffer level between a 5 s reservoir and a 15 s cushion,
// ignoring throughput except implicitly through the buffer.
type BufferBased struct{}

// Name implements Algorithm.
func (BufferBased) Name() string { return "bba" }

// NextRung implements Algorithm. BufferBased never reads the throughput
// estimate, so the cold-start contract holds structurally: the first call
// sees an empty buffer, lands in the reservoir branch, and returns rung 0.
func (BufferBased) NextRung(s State) int {
	n := len(s.Rates)
	switch {
	case n == 0, s.BufferSec <= reservoirSec:
		return 0
	case s.BufferSec >= cushionSec:
		return n - 1
	default:
		frac := (s.BufferSec - reservoirSec) / (cushionSec - reservoirSec)
		return clampRung(int(frac*float64(n)), n)
	}
}

// New returns an algorithm by name: "rate", "bba", or "fixed" (rung 0).
func New(name string) (Algorithm, error) {
	switch name {
	case "rate":
		return RateBased{}, nil
	case "bba":
		return BufferBased{}, nil
	case "fixed":
		return Fixed{}, nil
	default:
		return nil, fmt.Errorf("abr: unknown algorithm %q", name)
	}
}

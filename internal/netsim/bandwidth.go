// Package netsim models the network substrate of mobile streaming: link
// bandwidth over time (constant, stepped, and Markov-modulated cellular
// traces), the 3G/LTE RRC radio state machine with its power levels and
// inactivity tail timers, a segment downloader that drives both, and the
// M/G/N capacity model used for the radio-resource experiment.
package netsim

import (
	"fmt"
	"math"
	"sort"

	"videodvfs/internal/sim"
)

// Bandwidth exposes link rate as a piecewise-constant function of time:
// Rate returns the current rate and the time until which it is guaranteed
// constant, so downloads can integrate exactly.
type Bandwidth interface {
	// Rate returns the rate in bits/s at now and the horizon up to which
	// that rate holds. The horizon must be > now (or sim.Forever).
	Rate(now sim.Time) (bps float64, until sim.Time)
}

// Constant is a fixed-rate link.
type Constant struct {
	// Bps is the link rate in bits/s.
	Bps float64
}

// Rate implements Bandwidth.
func (c Constant) Rate(sim.Time) (float64, sim.Time) { return c.Bps, sim.Forever }

// Step is one piece of a stepped bandwidth trace.
type Step struct {
	// Start is when this rate takes effect.
	Start sim.Time
	// Bps is the rate from Start until the next step.
	Bps float64
}

// Steps is a piecewise-constant bandwidth trace. The rate before the first
// step is the first step's rate; after the last step, the last rate holds
// forever. Steps repeat cyclically if Cycle is positive.
type Steps struct {
	// Trace is the step list, ascending by Start.
	Trace []Step
	// Cycle, if positive, repeats the trace with this period.
	Cycle sim.Time
}

// Validate checks trace ordering.
func (s Steps) Validate() error {
	if len(s.Trace) == 0 {
		return fmt.Errorf("netsim: empty step trace")
	}
	for i, st := range s.Trace {
		if st.Bps < 0 {
			return fmt.Errorf("netsim: step %d has negative rate", i)
		}
		if i > 0 && st.Start <= s.Trace[i-1].Start {
			return fmt.Errorf("netsim: steps not ascending at %d", i)
		}
	}
	if s.Cycle < 0 {
		return fmt.Errorf("netsim: negative cycle")
	}
	if s.Cycle > 0 && s.Trace[len(s.Trace)-1].Start >= s.Cycle {
		return fmt.Errorf("netsim: last step starts at/after the cycle period")
	}
	return nil
}

// Rate implements Bandwidth.
func (s Steps) Rate(now sim.Time) (float64, sim.Time) {
	if len(s.Trace) == 0 {
		return 0, sim.Forever
	}
	t := now
	var base sim.Time
	if s.Cycle > 0 {
		// math.Floor, not int truncation: a conversion through int is
		// undefined for values outside int's range (huge now / tiny cycle)
		// and truncates toward zero for negative quotients. Renormalize so
		// t lands in [0, Cycle) even when the division or multiplication
		// rounded across a boundary.
		base = sim.Time(math.Floor(float64(now/s.Cycle))) * s.Cycle
		if now-base >= s.Cycle {
			base += s.Cycle
		} else if now < base {
			base -= s.Cycle
		}
		t = now - base
	}
	// Find the step active at t.
	i := sort.Search(len(s.Trace), func(i int) bool { return s.Trace[i].Start > t }) - 1
	if i < 0 {
		i = 0
	}
	rate := s.Trace[i].Bps
	var until sim.Time
	if i+1 < len(s.Trace) {
		until = base + s.Trace[i+1].Start
	} else if s.Cycle > 0 {
		until = base + s.Cycle
	} else {
		return rate, sim.Forever
	}
	if until <= now {
		// Float-edge collapse: base + boundary rounded onto (or under) now,
		// so the query instant already belongs to the next piece. Advance
		// one piece and answer with its rate instead of holding the stale
		// one — the old microsecond hold reported the previous cycle's last
		// rate for 1µs at exact cycle boundaries.
		i++
		if i >= len(s.Trace) {
			i = 0
			base += s.Cycle
		}
		rate = s.Trace[i].Bps
		if i+1 < len(s.Trace) {
			until = base + s.Trace[i+1].Start
		} else if s.Cycle > 0 {
			until = base + s.Cycle
		} else {
			return rate, sim.Forever
		}
		if until <= now {
			// Pathological scale (cycle below float resolution at now):
			// the rate is current, and the horizon still must advance.
			until = now + sim.Microsecond
		}
	}
	return rate, until
}

// MarkovState is one state of a Markov-modulated bandwidth process.
type MarkovState struct {
	// Name labels the state ("good", "edge", "outage").
	Name string
	// MeanBps is the mean rate in this state; each visit draws a rate
	// lognormally around it with RateCV.
	MeanBps float64
	// RateCV is the per-visit rate variability.
	RateCV float64
	// MeanHold is the mean sojourn time (exponential).
	MeanHold sim.Time
	// Next are transition weights to other states (by index); uniform if
	// empty.
	Next []float64
}

// MaxTraceDuration is the longest trace GenMarkovTrace generates: 96 h.
// A run draws its Markov trace over four times its content length, so
// this admits the longest content the simulator accepts (24 h,
// video.MaxDuration); a longer request fails at once instead of
// generating until memory runs out.
const MaxTraceDuration = 96 * 60 * sim.Minute

// GenMarkovTrace pregenerates a Steps trace of the given duration from a
// Markov bandwidth process, deterministically from rng.
func GenMarkovTrace(states []MarkovState, dur sim.Time, rng *sim.RNG) (Steps, error) {
	if len(states) == 0 {
		return Steps{}, fmt.Errorf("netsim: no markov states")
	}
	if !(dur > 0) || math.IsInf(float64(dur), 1) {
		return Steps{}, fmt.Errorf("netsim: markov trace duration %v s not finite and positive", float64(dur))
	}
	if dur > MaxTraceDuration {
		return Steps{}, fmt.Errorf("netsim: markov trace duration %v s longer than the %v s cap", dur.Seconds(), MaxTraceDuration.Seconds())
	}
	for i, st := range states {
		if st.MeanBps < 0 || st.MeanHold <= 0 {
			return Steps{}, fmt.Errorf("netsim: markov state %d (%s) invalid", i, st.Name)
		}
		if len(st.Next) != 0 && len(st.Next) != len(states) {
			return Steps{}, fmt.Errorf("netsim: markov state %d has %d weights, want %d", i, len(st.Next), len(states))
		}
	}
	var trace []Step
	cur := 0
	var at sim.Time
	for at < dur {
		st := states[cur]
		rate := st.MeanBps
		if rate > 0 && st.RateCV > 0 {
			rate = rng.LognormalMeanCV(st.MeanBps, st.RateCV)
		}
		trace = append(trace, Step{Start: at, Bps: rate})
		hold := sim.Time(rng.Exp(st.MeanHold.Seconds()))
		if hold < 100*sim.Millisecond {
			hold = 100 * sim.Millisecond
		}
		at += hold
		if len(st.Next) == 0 {
			cur = rng.Intn(len(states))
		} else {
			cur = rng.Pick(st.Next)
		}
	}
	return Steps{Trace: trace}, nil
}

// LTEStates returns a three-state LTE profile: good cell, cell edge, and
// brief outages, averaging ≈12 Mbps.
func LTEStates() []MarkovState {
	return []MarkovState{
		{Name: "good", MeanBps: 18e6, RateCV: 0.25, MeanHold: 8 * sim.Second, Next: []float64{0, 0.9, 0.1}},
		{Name: "edge", MeanBps: 4e6, RateCV: 0.40, MeanHold: 4 * sim.Second, Next: []float64{0.85, 0, 0.15}},
		{Name: "outage", MeanBps: 0, RateCV: 0, MeanHold: 800 * sim.Millisecond, Next: []float64{0.5, 0.5, 0}},
	}
}

// UMTSStates returns a 3G HSPA profile averaging ≈2.5 Mbps.
func UMTSStates() []MarkovState {
	return []MarkovState{
		{Name: "good", MeanBps: 3.5e6, RateCV: 0.30, MeanHold: 10 * sim.Second, Next: []float64{0, 0.9, 0.1}},
		{Name: "edge", MeanBps: 1.0e6, RateCV: 0.40, MeanHold: 5 * sim.Second, Next: []float64{0.8, 0, 0.2}},
		{Name: "outage", MeanBps: 0, RateCV: 0, MeanHold: 1200 * sim.Millisecond, Next: []float64{0.4, 0.6, 0}},
	}
}

// WiFiSteady returns a stable 30 Mbps WiFi link.
func WiFiSteady() Bandwidth { return Constant{Bps: 30e6} }

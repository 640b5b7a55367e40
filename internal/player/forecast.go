package player

import (
	"math"

	"videodvfs/internal/sim"
)

// Forecast is the bandwidth-prediction interface the predictive download
// scheduler consumes. It is declared here structurally — like Fetcher — so
// the player never imports netsim; netsim.Oracle and netsim.Noisy satisfy
// it implicitly.
//
// Predictions must be pure and query-order-independent: the scheduler
// re-evaluates the forecast at every display tick, and how often it asked
// must not change what it was told.
type Forecast interface {
	// Predict returns the predicted rate in bits/s at t and the horizon up
	// to which that prediction holds (> t, piecewise-constant).
	Predict(t sim.Time) (bps float64, until sim.Time)
	// Horizon returns the lookahead window relative to the query time;
	// the scheduler never acts on predictions beyond now+Horizon.
	Horizon() sim.Time
}

// planPieceCap bounds forecast-piece iteration in the planner. A forecast
// that keeps returning micro-pieces (or fails to advance) terminates
// against this cap instead of hanging the decision point; the integration
// then reports "doesn't fit" and the scheduler degrades to reactive.
const planPieceCap = 512

// burstTailSec approximates the radio's fixed per-burst overhead: the
// inactivity tail a burst leaves behind once the transfer ends (≈10 s of
// DCH/CONNECTED on LTE, T1+T2 on UMTS). The planner charges this against
// early starts — racing a burst Δ seconds before the reactive trigger
// shrinks the refill by Δ buffer-seconds, which adds Δ/refill extra
// bursts (and tails) over the session — so a race must buy back more
// delivery time than the tail time it amortizes in. Without this charge
// the planner races into every marginally-better window and the extra
// tails eat the win.
const burstTailSec = 10.0

// planBurst decides when a refill burst of `bits` should start, given the
// forecast at time now. It returns a finite start in [now, now+Horizon]:
// now itself means "start immediately", any later time means "defer and
// re-evaluate at the next decision point". refillSec is the nominal
// buffer gain of a full burst (max buffer − low water), the amortization
// base for the per-burst tail charge.
//
// The candidate starts are now, every forecast piece boundary before
// capEnd = min(now+Horizon, last segment deadline), and — above the
// low-water mark — the reactive trigger time lowT (when the draining
// buffer will cross low water). Each candidate is scored by the burst's
// delivery duration d(s), integrating the forecast piecewise from s;
// candidates whose burst misses any per-segment deadline score +Inf.
//
//   - Above low water (urgent == false): the reactive trigger is the
//     default. A candidate earlier than lowT pays the amortized tail
//     charge burstTailSec·(lowT−s)/refillSec on top of d(s) and must
//     still beat d(lowT) strictly — a race only wins when the burst fits
//     a good window that the reactive start would straddle into a fade.
//     A later candidate pays no charge (deferring grows the burst) but
//     must be strictly cheaper, so a flat forecast defers exactly like
//     the reactive path.
//   - At/below low water (urgent == true): start now unless some later
//     candidate is strictly better — a predicted recovery the buffer can
//     ride toward beats fetching straight into a fade.
//
// When everything scores +Inf (a doomed link), the reactive start wins:
// the plan degrades to the reactive schedule.
//
// The burst is a sequence of segments (segBits); segment j must be fully
// delivered by tDry + j·segSec — the instant playback exhausts the j
// segments buffered ahead of it. Per-segment deadlines are what make
// deferral safe: a whole-burst deadline lets a fading forecast front-load
// the slack and stall mid-burst anyway.
func planBurst(fc Forecast, now sim.Time, segBits []float64, segSec, refillSec float64, lowT, tDry sim.Time, urgent bool) sim.Time {
	h := fc.Horizon()
	if !(h > 0) || math.IsInf(float64(h), 0) {
		return now
	}
	capEnd := now + h
	if len(segBits) > 0 {
		if last := tDry + sim.Time(float64(len(segBits)-1)*segSec); last < capEnd {
			capEnd = last
		}
	}
	if !(capEnd > now) {
		return now
	}

	if urgent {
		// At/below low water "now" is the reactive behavior; only a
		// strictly cheaper later window justifies riding the fade out.
		best, bestD := now, burstDur(fc, now, segBits, segSec, tDry)
		t := now
		for range planPieceCap {
			_, until := fc.Predict(t)
			if !(until > t) || until > capEnd {
				break
			}
			if d := burstDur(fc, until, segBits, segSec, tDry); d < bestD {
				best, bestD = until, d
			}
			t = until
		}
		return best
	}

	ref := lowT
	if ref > capEnd {
		ref = capEnd
	}
	if ref < now {
		ref = now
	}
	if !(refillSec > 0) {
		refillSec = 1
	}
	score := func(s sim.Time) float64 {
		d := burstDur(fc, s, segBits, segSec, tDry)
		if s < ref {
			d += burstTailSec * float64(ref-s) / refillSec
		}
		return d
	}
	// Seed with the reactive trigger so every tie resolves to it: the
	// predictive schedule deviates only when a candidate is strictly
	// cheaper after the tail charge.
	best, bestD := ref, score(ref)
	consider := func(s sim.Time) {
		if d := score(s); d < bestD {
			best, bestD = s, d
		}
	}
	consider(now)
	t := now
	for range planPieceCap {
		_, until := fc.Predict(t)
		if !(until > t) || until > capEnd {
			break
		}
		consider(until)
		t = until
	}
	return best
}

// burstDur integrates the forecast from s until every segment of the
// burst has been delivered, returning the delivery duration in seconds —
// or +Inf if any segment misses its deadline (segment j is due at
// tDry + j·segSec, when playback exhausts the buffer ahead of it) or the
// forecast degenerates. Non-finite or negative predicted rates are
// treated as outage.
func burstDur(fc Forecast, s sim.Time, segBits []float64, segSec float64, tDry sim.Time) float64 {
	seg := 0
	for seg < len(segBits) && segBits[seg] <= 0 {
		seg++
	}
	if seg >= len(segBits) {
		return 0
	}
	rem := segBits[seg]
	due := tDry + sim.Time(float64(seg)*segSec)
	t := s
	for range planPieceCap {
		if t > due {
			return math.Inf(1)
		}
		bps, until := fc.Predict(t)
		if math.IsNaN(bps) || math.IsInf(bps, 0) || bps < 0 {
			bps = 0
		}
		if !(until > t) {
			return math.Inf(1) // non-advancing forecast
		}
		if bps > 0 {
			// Drain as many segment completions as fit in this piece.
			for {
				finish := t + sim.Time(rem/bps)
				if finish > until {
					rem -= bps * (until - t).Seconds()
					break
				}
				if finish > due {
					return math.Inf(1)
				}
				t = finish
				seg++
				for seg < len(segBits) && segBits[seg] <= 0 {
					seg++
				}
				if seg >= len(segBits) {
					return float64(finish - s)
				}
				rem = segBits[seg]
				due = tDry + sim.Time(float64(seg)*segSec)
			}
		}
		t = until
	}
	return math.Inf(1)
}

// shouldStartBurst is the predictive replacement for the reactive
// low-water trigger: called from maybeFetch while draining (a forecast is
// attached), it reports whether the refill burst should start at this
// decision point. Deferred decisions are re-evaluated every display tick,
// so "no" now never strands the session — and when playback is stopped
// (startup or stall) the answer is always yes, racing restores QoE.
func (s *Session) shouldStartBurst() bool {
	if !s.playing {
		return true
	}
	now := s.eng.Now()
	buf := s.BufferSec()
	// The burst refills low water → max buffer, at the rung the ABR last
	// fetched (the plan is advisory; the ABR re-decides per segment).
	segSec := s.cfg.SegmentDur.Seconds()
	nSegs := int(math.Ceil((s.cfg.MaxBufferSec - s.cfg.LowWaterSec) / segSec))
	if nSegs < 1 {
		nSegs = 1
	}
	if rem := s.numSegs - s.nextSeg; nSegs > rem {
		nSegs = rem
	}
	rung := s.lastRung
	if rung < 0 {
		rung = 0
	}
	if cap(s.planSeg) < nSegs {
		s.planSeg = make([]float64, nSegs)
	}
	segBits := s.planSeg[:nSegs]
	for j := range nSegs {
		segBits[j] = s.segments[rung].segs[s.nextSeg+j].Bits
	}
	// While playing, the buffer drains at 1 s/s: it crosses low water at
	// lowT and runs dry at tDry — the deadline for the burst's first
	// segment; each later segment buys itself segSec more playback. One
	// segment of guard absorbs the plan's optimistic edges (the ABR may
	// upgrade the rung mid-burst, and fetches land whole-segment): a
	// deferral that only just fits the model is not worth a stall.
	lowT := now + sim.Time(buf-s.cfg.LowWaterSec)
	tDry := now + sim.Time(buf-segSec)
	urgent := buf <= s.cfg.LowWaterSec
	refill := s.cfg.MaxBufferSec - s.cfg.LowWaterSec
	return planBurst(s.cfg.Forecast, now, segBits, segSec, refill, lowT, tDry, urgent) <= now
}

package netsim

import (
	"fmt"

	"videodvfs/internal/sim"
	"videodvfs/internal/trace"
)

// RRCState is a radio resource control state. The three-state machine
// covers both UMTS (IDLE/FACH/DCH) and, by relabeling, LTE
// (IDLE/DRX/CONNECTED).
type RRCState uint8

// Radio states, from cheapest to most expensive.
const (
	// StateIdle has no signaling connection; promotion is slow.
	StateIdle RRCState = iota + 1
	// StateFACH holds the signaling connection on shared channels
	// (LTE: DRX). Promotion to DCH is fast.
	StateFACH
	// StateDCH holds dedicated transmission channels (LTE: CONNECTED).
	StateDCH
)

// String returns the UMTS state name.
func (s RRCState) String() string {
	switch s {
	case StateIdle:
		return "IDLE"
	case StateFACH:
		return "FACH"
	case StateDCH:
		return "DCH"
	default:
		return "?"
	}
}

// RRCConfig holds the radio state machine's timers and power levels.
// Defaults follow the published UMTS measurements the paper's group
// reported (DCH ≈ 1.15 W, FACH ≈ 0.63 W, T1 = 4 s, T2 = 15 s, IDLE→DCH
// promotion > 1 s).
type RRCConfig struct {
	// IdleW, FACHW, DCHW are the radio power levels per state.
	IdleW, FACHW, DCHW float64
	// TxExtraW is drawn on top of DCHW while bits are actually flowing.
	TxExtraW float64
	// T1 is the DCH→FACH inactivity tail.
	T1 sim.Time
	// T2 is the FACH→IDLE inactivity tail.
	T2 sim.Time
	// PromoIdle is the IDLE→DCH promotion delay (signaling setup).
	PromoIdle sim.Time
	// PromoFACH is the FACH→DCH promotion delay.
	PromoFACH sim.Time
	// FastDormancy, when set, demotes DCH→IDLE immediately after each
	// activity ends instead of waiting out the tails (SCRI release).
	FastDormancy bool
}

// DefaultUMTS returns the measured T-Mobile UMTS profile.
func DefaultUMTS() RRCConfig {
	return RRCConfig{
		IdleW:     0.02,
		FACHW:     0.63,
		DCHW:      1.15,
		TxExtraW:  0.10,
		T1:        4 * sim.Second,
		T2:        15 * sim.Second,
		PromoIdle: 2 * sim.Second,
		PromoFACH: 700 * sim.Millisecond,
	}
}

// DefaultLTE returns an LTE profile: CONNECTED/DRX mapped onto the DCH/FACH
// slots with a 10 s + 1.3 s tail split and faster promotions.
func DefaultLTE() RRCConfig {
	return RRCConfig{
		IdleW:     0.02,
		FACHW:     0.45, // long DRX
		DCHW:      1.20, // CONNECTED
		TxExtraW:  0.30,
		T1:        10 * sim.Second,
		T2:        1300 * sim.Millisecond,
		PromoIdle: 400 * sim.Millisecond,
		PromoFACH: 100 * sim.Millisecond,
	}
}

// Validate checks the configuration.
func (c RRCConfig) Validate() error {
	if c.IdleW < 0 || c.FACHW <= c.IdleW || c.DCHW <= c.FACHW {
		return fmt.Errorf("rrc: power levels must satisfy 0 ≤ idle < fach < dch (got %v/%v/%v)", c.IdleW, c.FACHW, c.DCHW)
	}
	if c.TxExtraW < 0 {
		return fmt.Errorf("rrc: negative tx extra power")
	}
	if c.T1 <= 0 || c.T2 <= 0 {
		return fmt.Errorf("rrc: tail timers must be positive (T1=%v, T2=%v)", c.T1, c.T2)
	}
	if c.PromoIdle < 0 || c.PromoFACH < 0 {
		return fmt.Errorf("rrc: negative promotion delays")
	}
	return nil
}

// Radio is the RRC state machine instance. Activity begins with
// BeginActivity (which promotes to DCH, after the applicable delay) and
// ends with EndActivity (which arms the tail timers or fast-dormancy
// release). Power is reported to the registered listener on every change.
type Radio struct {
	eng *sim.Engine
	cfg RRCConfig

	state        RRCState
	transferring bool
	promoting    bool
	waiters      []func()
	// waitersSpare is the second half of a double buffer: promotion
	// completion swaps it in before draining, so waiter slices are reused
	// instead of reallocated every promotion.
	waitersSpare []func()
	t1, t2       *sim.Timeout
	promoEv      sim.Event
	// promotedFn is the pre-bound promotion-complete callback.
	promotedFn func()

	onPower func(now sim.Time, watts float64)
	onState func(now sim.Time, s RRCState)
	tracer  trace.Tracer

	// dwell is indexed by RRCState (hot path); Residency converts to a
	// map at the reporting boundary.
	dwell     [StateDCH + 1]sim.Time
	lastDwell sim.Time
	promos    int
}

// NewRadio returns a radio in IDLE.
func NewRadio(eng *sim.Engine, cfg RRCConfig) (*Radio, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Radio{eng: eng, cfg: cfg, state: StateIdle}
	r.t1 = sim.NewTimeout(eng, cfg.T1, func(sim.Time) { r.demoteToFACH() })
	r.t2 = sim.NewTimeout(eng, cfg.T2, func(sim.Time) { r.demoteToIdle() })
	r.promotedFn = r.promoted
	return r, nil
}

// Reset rewinds the radio to the state NewRadio would construct for cfg,
// keeping its allocations: the waiter double buffer, the tail timeouts,
// and the pre-bound promotion callback survive. Listeners and the tracer
// are dropped (the next run re-registers its own). A pending promotion
// and the tail timers are canceled, so the radio can be rewound on an
// engine that keeps running; after an Engine.Reset their handles are
// stale and the cancels are no-ops.
func (r *Radio) Reset(cfg RRCConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	r.cfg = cfg
	r.state = StateIdle
	r.transferring = false
	r.promoting = false
	for i := range r.waiters {
		r.waiters[i] = nil
	}
	r.waiters = r.waiters[:0]
	for i := range r.waitersSpare {
		r.waitersSpare[i] = nil
	}
	r.waitersSpare = r.waitersSpare[:0]
	r.t1.Rebind(cfg.T1)
	r.t2.Rebind(cfg.T2)
	r.eng.Cancel(r.promoEv)
	r.promoEv = sim.Event{}
	r.onPower = nil
	r.onState = nil
	r.tracer = nil
	r.dwell = [StateDCH + 1]sim.Time{}
	r.lastDwell = 0
	r.promos = 0
	return nil
}

// State returns the current RRC state.
func (r *Radio) State() RRCState { return r.state }

// Promotions returns how many IDLE/FACH→DCH promotions have occurred.
func (r *Radio) Promotions() int { return r.promos }

// OnPower registers the power listener and fires it with the current draw.
func (r *Radio) OnPower(fn func(now sim.Time, watts float64)) {
	r.onPower = fn
	r.emitPower()
}

// OnState registers a state-transition listener.
func (r *Radio) OnState(fn func(now sim.Time, s RRCState)) { r.onState = fn }

// SetTracer attaches a structured tracer receiving RRC state changes.
func (r *Radio) SetTracer(tr trace.Tracer) { r.tracer = tr }

// Power returns the current radio draw in watts.
func (r *Radio) Power() float64 {
	var w float64
	switch r.state {
	case StateIdle:
		w = r.cfg.IdleW
	case StateFACH:
		w = r.cfg.FACHW
	case StateDCH:
		w = r.cfg.DCHW
		if r.transferring {
			w += r.cfg.TxExtraW
		}
	}
	return w
}

// Residency returns seconds spent in each state so far.
func (r *Radio) Residency() map[RRCState]sim.Time {
	out := make(map[RRCState]sim.Time, len(r.dwell))
	r.ResidencyInto(out)
	return out
}

// ResidencyInto fills out with seconds spent in each state so far,
// clearing it first. It is the allocation-free variant of Residency for
// result structs that recycle their maps across runs.
func (r *Radio) ResidencyInto(out map[RRCState]sim.Time) {
	clear(out)
	for s, v := range r.dwell {
		if v > 0 {
			out[RRCState(s)] = v
		}
	}
	out[r.state] += r.eng.Now() - r.lastDwell
}

func (r *Radio) emitPower() {
	if r.onPower != nil {
		r.onPower(r.eng.Now(), r.Power())
	}
}

func (r *Radio) setState(s RRCState) {
	if s == r.state {
		return
	}
	now := r.eng.Now()
	r.dwell[r.state] += now - r.lastDwell
	r.lastDwell = now
	r.state = s
	if r.onState != nil {
		r.onState(now, s)
	}
	if r.tracer != nil {
		r.tracer.RRC(trace.RRCEvent{T: now, State: s.String()})
	}
	r.emitPower()
}

// BeginActivity requests dedicated channels and calls ready once the radio
// is in DCH (immediately if it already is). Data flowing should be
// bracketed by SetTransferring.
func (r *Radio) BeginActivity(ready func()) {
	r.t1.Stop()
	r.t2.Stop()
	switch {
	case r.state == StateDCH:
		ready()
	case r.promoting:
		r.waiters = append(r.waiters, ready)
	default:
		r.promoting = true
		r.waiters = append(r.waiters, ready)
		delay := r.cfg.PromoFACH
		if r.state == StateIdle {
			delay = r.cfg.PromoIdle
		}
		r.promos++
		r.promoEv = r.eng.Schedule(delay, r.promotedFn)
	}
}

// promoted completes an IDLE/FACH→DCH promotion and wakes the waiters.
func (r *Radio) promoted() {
	r.promoting = false
	r.promoEv = sim.Event{}
	r.setState(StateDCH)
	// Swap the waiter buffers so callbacks that re-enter BeginActivity
	// append to a fresh slice while this one drains; both retain their
	// capacity across promotions.
	ws := r.waiters
	r.waiters = r.waitersSpare[:0]
	for _, w := range ws {
		w()
	}
	for i := range ws {
		ws[i] = nil
	}
	r.waitersSpare = ws[:0]
}

// SetTransferring marks whether user data is flowing right now (adds
// TxExtraW on DCH).
func (r *Radio) SetTransferring(active bool) {
	if r.transferring == active {
		return
	}
	r.transferring = active
	r.emitPower()
}

// EndActivity signals that the current transfer burst is over: the tail
// timer T1 is armed (or, with fast dormancy, the radio releases straight
// to IDLE).
func (r *Radio) EndActivity() {
	r.SetTransferring(false)
	if r.state != StateDCH {
		return
	}
	if r.cfg.FastDormancy {
		r.demoteToIdle()
		return
	}
	r.t1.Reset()
}

func (r *Radio) demoteToFACH() {
	if r.state != StateDCH || r.promoting {
		return
	}
	r.setState(StateFACH)
	r.t2.Reset()
}

func (r *Radio) demoteToIdle() {
	if r.promoting {
		return
	}
	r.t1.Stop()
	r.t2.Stop()
	r.setState(StateIdle)
}

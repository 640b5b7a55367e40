package sim

// Ticker invokes a callback at a fixed virtual-time period until stopped.
// It is the simulation analogue of a kernel sampling timer (e.g. the
// cpufreq governor sampling interval).
//
// The re-arm closure is created once at construction, so a running ticker
// allocates nothing per tick.
type Ticker struct {
	eng     *Engine
	period  Time
	fn      func(now Time)
	tick    func() // pre-bound re-arm target; built once in NewTicker
	pending Event
	stopped bool
}

// NewTicker schedules fn every period, first firing one period from now.
// period must be positive.
func NewTicker(eng *Engine, period Time, fn func(now Time)) *Ticker {
	t := &Ticker{eng: eng, period: period, fn: fn}
	t.tick = t.run
	t.pending = eng.Schedule(period, t.tick)
	return t
}

func (t *Ticker) run() {
	// The pending event has been delivered: clear the handle before the
	// callback runs so a Stop inside the callback never cancels an
	// already-fired event (whose pooled slot may meanwhile belong to a
	// freshly armed ticker at the same timestamp). This pins exactly-once
	// semantics for the stop-within-callback-then-rearm pattern.
	t.pending = Event{}
	if t.stopped {
		return
	}
	t.fn(t.eng.Now())
	if !t.stopped {
		t.pending = t.eng.Schedule(t.period, t.tick)
	}
}

// Stop cancels future ticks. Safe to call multiple times, including from
// inside the tick callback.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.eng.Cancel(t.pending)
	t.pending = Event{}
}

// Timeout is a restartable one-shot timer, the simulation analogue of the
// RRC inactivity ("tail") timers: each Reset pushes the expiry out, Stop
// disarms it, and fn runs only if the timer is allowed to expire.
//
// Like Ticker, the expiry closure is created once, so Reset allocates
// nothing.
type Timeout struct {
	eng     *Engine
	d       Time
	fn      func(now Time)
	expire  func() // pre-bound expiry target; built once in NewTimeout
	pending Event
}

// NewTimeout returns a disarmed timeout that, when armed, fires fn after d.
func NewTimeout(eng *Engine, d Time, fn func(now Time)) *Timeout {
	t := &Timeout{eng: eng, d: d, fn: fn}
	t.expire = t.run
	return t
}

func (t *Timeout) run() {
	t.pending = Event{}
	t.fn(t.eng.Now())
}

// Reset (re)arms the timeout to fire its callback d from now, canceling any
// pending expiry.
func (t *Timeout) Reset() {
	t.eng.Cancel(t.pending)
	t.pending = t.eng.Schedule(t.d, t.expire)
}

// Stop disarms the timeout if armed.
func (t *Timeout) Stop() {
	t.eng.Cancel(t.pending)
	t.pending = Event{}
}

// Rebind disarms the timeout, canceling any pending expiry, and
// reconfigures its delay: the timeout returns to its disarmed
// just-constructed state with the new delay. After an Engine.Reset the
// handle is already stale and the cancel is a no-op.
func (t *Timeout) Rebind(d Time) {
	t.Stop()
	t.d = d
}

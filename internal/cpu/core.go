package cpu

import (
	"fmt"

	"videodvfs/internal/sim"
	"videodvfs/internal/trace"
)

// Priority orders queued jobs; lower values run first. Within a priority,
// jobs run FIFO. Execution is non-preemptive, as with small CFS timeslices
// and the millisecond-scale jobs this model uses.
type Priority int

// Job priorities used by the streaming pipeline.
const (
	// PrioDecode is for frame-decode jobs (latency critical).
	PrioDecode Priority = iota
	// PrioNetwork is for network-stack processing of received data.
	PrioNetwork
	// PrioBackground is for player UI and OS housekeeping work.
	PrioBackground
)

// Job is a unit of CPU work measured in cycles. The core queues jobs by
// value, so submitting one allocates nothing.
type Job struct {
	// Cycles is the demand; must be positive.
	Cycles float64
	// Priority selects the queue (see Priority) and the completed-cycle
	// total the job counts toward (see Core.Cycles).
	Priority Priority
	// OnDone, if set, runs when the job completes.
	OnDone func(now sim.Time)
}

// minJobRing is a job ring's first size.
const minJobRing = 16

// jobQueue is a FIFO ring of jobs. A full ring doubles, unwrapping into
// the new array, so a queue that has reached its depth allocates nothing
// more. Every emptied slot is cleared, so no finished or dropped job's
// OnDone stays reachable through the ring.
type jobQueue struct {
	buf  []Job
	head int
	n    int
}

func (q *jobQueue) push(j Job) {
	if q.n == len(q.buf) {
		buf := make([]Job, max(2*len(q.buf), minJobRing))
		k := copy(buf, q.buf[q.head:])
		copy(buf[k:], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = j
	q.n++
}

func (q *jobQueue) pop() Job {
	j := q.buf[q.head]
	q.buf[q.head] = Job{}
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return j
}

// clear drops every queued job, keeping the ring.
func (q *jobQueue) clear() {
	clear(q.buf)
	q.head, q.n = 0, 0
}

type runningJob struct {
	job       Job
	remaining float64
	resumedAt sim.Time
}

// Core is a single execution core in a frequency domain. It is the only
// entity that consumes CPU power in the model; governors steer it through
// SetOPP, workloads feed it through Submit.
type Core struct {
	eng   *sim.Engine
	model Model

	oppIdx  int
	capIdx  int // highest OPP currently allowed (thermal throttling)
	queues  [PrioBackground + 1]jobQueue
	current runningJob
	running bool
	doneEv  sim.Event
	// completeFn is the pre-bound completion callback; binding it once
	// keeps rearmCompletion allocation-free.
	completeFn func()
	// stallUntil is the end of an in-flight DVFS transition stall.
	stallUntil sim.Time

	totalBusy sim.Time
	busySince sim.Time
	busy      bool
	// cycles is the completed cycles per priority.
	cycles [PrioBackground + 1]float64

	onPower func(now sim.Time, watts float64)
	onOPP   func(now sim.Time, idx int)
	tracer  trace.Tracer
	// freqDwell is indexed by OPP (hot path); FreqResidency converts to a
	// map at the reporting boundary.
	freqDwell   []sim.Time
	lastDwell   sim.Time
	transitions int

	// cpuidle model (nil unless EnableCStates was called).
	idle         *idleGovernor
	idleStateIdx int
	idleSince    sim.Time
	// idleDwell is indexed by C-state (hot path); IdleStateResidency
	// converts to a map at the reporting boundary.
	idleDwell []sim.Time
}

// NewCore returns a core for the given model, parked at the lowest OPP.
func NewCore(eng *sim.Engine, model Model) (*Core, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	c := &Core{
		eng:       eng,
		model:     model,
		capIdx:    model.MaxIdx(),
		freqDwell: make([]sim.Time, len(model.OPPs)),
	}
	c.completeFn = c.complete
	return c, nil
}

// Reset rewinds the core to the state NewCore would construct for model,
// keeping its allocations: the job rings, the dwell table (when the OPP
// count matches), and the pre-bound completion callback all survive.
// Queued and in-flight jobs are dropped, their slots cleared; listeners
// and the tracer are dropped (the next run re-registers its own); the
// cpuidle model is disabled until EnableCStates is called again. A pending
// completion is canceled, so a core rewound on an engine that keeps
// running retires nothing of the old run.
func (c *Core) Reset(model Model) error {
	if err := model.Validate(); err != nil {
		return err
	}
	c.eng.Cancel(c.doneEv)
	for p := range c.queues {
		c.queues[p].clear()
	}
	c.model = model
	c.oppIdx = 0
	c.capIdx = model.MaxIdx()
	c.current = runningJob{}
	c.running = false
	c.doneEv = sim.Event{}
	c.stallUntil = 0
	c.totalBusy = 0
	c.busySince = 0
	c.busy = false
	c.cycles = [PrioBackground + 1]float64{}
	c.onPower = nil
	c.onOPP = nil
	c.tracer = nil
	if len(c.freqDwell) == len(model.OPPs) {
		for i := range c.freqDwell {
			c.freqDwell[i] = 0
		}
	} else {
		c.freqDwell = make([]sim.Time, len(model.OPPs))
	}
	c.lastDwell = 0
	c.transitions = 0
	c.idle = nil
	c.idleStateIdx = 0
	c.idleSince = 0
	return nil
}

// Model returns the device model the core runs.
func (c *Core) Model() Model { return c.model }

// OPP returns the current OPP index.
func (c *Core) OPP() int { return c.oppIdx }

// FreqHz returns the current clock in Hz.
func (c *Core) FreqHz() float64 { return c.model.OPPs[c.oppIdx].FreqHz }

// Busy reports whether a job is executing now.
func (c *Core) Busy() bool { return c.busy }

// QueueLen returns the number of queued (not running) jobs.
func (c *Core) QueueLen() int {
	n := 0
	for p := range c.queues {
		n += c.queues[p].n
	}
	return n
}

// OnPower registers the power-change listener (at most one; the energy
// meter). It is invoked immediately with the current draw.
func (c *Core) OnPower(fn func(now sim.Time, watts float64)) {
	c.onPower = fn
	c.emitPower()
}

// OnOPPChange registers a listener for OPP changes (residency tracking).
func (c *Core) OnOPPChange(fn func(now sim.Time, idx int)) { c.onOPP = fn }

// SetTracer attaches a structured tracer receiving OPP transitions and
// busy/idle (C-state) events. nil disables tracing; the untraced path
// performs no calls and no allocations.
func (c *Core) SetTracer(tr trace.Tracer) { c.tracer = tr }

// Power returns the current draw in watts.
func (c *Core) Power() float64 {
	opp := c.model.OPPs[c.oppIdx]
	if c.busy {
		return opp.ActiveW
	}
	if c.idle != nil {
		return opp.IdleW * c.idle.states[c.idleStateIdx].PowerFrac
	}
	return opp.IdleW
}

func (c *Core) emitPower() {
	if c.onPower != nil {
		c.onPower(c.eng.Now(), c.Power())
	}
}

// BusyTime returns cumulative busy seconds including any in-flight job.
func (c *Core) BusyTime() sim.Time {
	t := c.totalBusy
	if c.busy {
		t += c.eng.Now() - c.busySince
	}
	return t
}

// Cycles returns the cumulative cycles completed by jobs of priority p.
func (c *Core) Cycles(p Priority) float64 { return c.cycles[p] }

// Transitions returns the number of OPP changes so far.
func (c *Core) Transitions() int { return c.transitions }

// FreqResidency returns seconds spent at each OPP index so far.
func (c *Core) FreqResidency() map[int]sim.Time {
	out := make(map[int]sim.Time, len(c.freqDwell))
	c.FreqResidencyInto(out)
	return out
}

// FreqResidencyInto fills out with seconds spent at each OPP index so far,
// clearing it first. It is the allocation-free variant of FreqResidency
// for result structs that recycle their maps across runs.
func (c *Core) FreqResidencyInto(out map[int]sim.Time) {
	clear(out)
	for idx, d := range c.freqDwell {
		if d > 0 {
			out[idx] = d
		}
	}
	out[c.oppIdx] += c.eng.Now() - c.lastDwell
}

// Submit enqueues a job. Jobs with non-positive cycles complete
// immediately.
func (c *Core) Submit(j Job) error {
	if j.Priority < PrioDecode || j.Priority > PrioBackground {
		return fmt.Errorf("cpu: job has invalid priority %d", j.Priority)
	}
	if j.Cycles <= 0 {
		if j.OnDone != nil {
			j.OnDone(c.eng.Now())
		}
		return nil
	}
	c.queues[j.Priority].push(j)
	if !c.busy {
		c.dispatch()
	}
	return nil
}

// SetOPPCap limits the highest OPP the domain may run at (thermal
// throttling). If the core currently runs above the cap it is forced down
// immediately. Passing the table's maximum removes the cap.
func (c *Core) SetOPPCap(idx int) {
	if idx < 0 {
		idx = 0
	}
	if idx > c.model.MaxIdx() {
		idx = c.model.MaxIdx()
	}
	c.capIdx = idx
	if c.oppIdx > idx {
		c.SetOPP(idx)
	}
}

// OPPCap returns the current throttling cap (the table maximum when
// unthrottled).
func (c *Core) OPPCap() int { return c.capIdx }

// SetOPP switches the frequency domain to OPP index idx (clamped to the
// table and the throttling cap). If a job is mid-flight its completion is
// recomputed with the remaining cycles, plus the model's transition stall.
func (c *Core) SetOPP(idx int) {
	if idx < 0 {
		idx = 0
	}
	if idx > c.capIdx {
		idx = c.capIdx
	}
	if idx == c.oppIdx {
		return
	}
	now := c.eng.Now()
	from := c.oppIdx
	c.freqDwell[c.oppIdx] += now - c.lastDwell
	c.lastDwell = now
	c.transitions++
	if c.running {
		// Charge cycles retired so far at the old frequency, then
		// restart the remainder at the new one after the stall.
		elapsed := now - c.current.resumedAt
		c.current.remaining -= elapsed.Seconds() * c.FreqHz()
		if c.current.remaining < 0 {
			c.current.remaining = 0
		}
		c.oppIdx = idx
		c.stallUntil = now + c.model.TransitionLatency
		c.current.resumedAt = c.stallUntil
		c.rearmCompletion()
	} else {
		c.oppIdx = idx
	}
	if c.onOPP != nil {
		c.onOPP(now, idx)
	}
	if c.tracer != nil {
		c.tracer.OPP(trace.OPPEvent{T: now, From: from, To: idx, FreqHz: c.model.OPPs[idx].FreqHz})
	}
	c.emitPower()
}

// SetFreq switches to the lowest OPP with frequency ≥ hz.
func (c *Core) SetFreq(hz float64) { c.SetOPP(c.model.IdxForFreq(hz)) }

func (c *Core) rearmCompletion() {
	c.eng.Cancel(c.doneEv)
	finish := c.current.resumedAt + sim.Time(c.current.remaining/c.FreqHz())
	c.doneEv = c.eng.At(finish, c.completeFn)
}

func (c *Core) dispatch() {
	p := 0
	for p < len(c.queues) && c.queues[p].n == 0 {
		p++
	}
	if p == len(c.queues) {
		if c.busy {
			now := c.eng.Now()
			c.totalBusy += now - c.busySince
			c.busy = false
			if c.idle != nil {
				// Enter the C-state the menu governor selects.
				c.idleStateIdx = c.idle.pick()
				c.idleSince = now
			}
			if c.tracer != nil {
				ev := trace.CPUBusyEvent{T: now}
				if c.idle != nil {
					ev.CState = c.idle.states[c.idleStateIdx].Name
				}
				c.tracer.CPUBusy(ev)
			}
			c.emitPower()
		}
		return
	}
	next := c.queues[p].pop()
	now := c.eng.Now()
	if !c.busy {
		if c.idle != nil {
			// Wake from the C-state: score the prediction and pay the
			// exit latency before the job may start.
			st := c.idle.states[c.idleStateIdx]
			idleDur := now - c.idleSince
			c.idle.observe(idleDur)
			c.idleDwell[c.idleStateIdx] += idleDur
			if wake := now + st.ExitLatency; wake > c.stallUntil {
				c.stallUntil = wake
			}
		}
		c.busy = true
		c.busySince = now
		if c.tracer != nil {
			c.tracer.CPUBusy(trace.CPUBusyEvent{T: now, Busy: true})
		}
		c.emitPower()
	}
	start := now
	if c.stallUntil > start {
		start = c.stallUntil
	}
	c.current = runningJob{job: next, remaining: next.Cycles, resumedAt: start}
	c.running = true
	c.rearmCompletion()
}

func (c *Core) complete() {
	job := c.current.job
	c.cycles[job.Priority] += job.Cycles
	c.current = runningJob{}
	c.running = false
	c.doneEv = sim.Event{}
	if job.OnDone != nil {
		job.OnDone(c.eng.Now())
	}
	c.dispatch()
}

// UtilSampler computes windowed utilization the way cpufreq samplers do:
// the fraction of wall time the core was busy since the previous sample.
type UtilSampler struct {
	core     *Core
	lastBusy sim.Time
	lastAt   sim.Time
}

// NewUtilSampler returns a sampler anchored at the current time.
func NewUtilSampler(core *Core) *UtilSampler {
	return &UtilSampler{core: core, lastBusy: core.BusyTime(), lastAt: core.eng.Now()}
}

// Sample returns utilization in [0, 1] over the window since the last
// call (or construction) and re-anchors the window.
func (s *UtilSampler) Sample(now sim.Time) float64 {
	busy := s.core.BusyTime()
	dt := now - s.lastAt
	db := busy - s.lastBusy
	s.lastAt = now
	s.lastBusy = busy
	if dt <= 0 {
		return 0
	}
	u := float64(db / dt)
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return u
}

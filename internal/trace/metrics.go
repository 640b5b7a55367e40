package trace

import (
	"videodvfs/internal/sim"
	"videodvfs/internal/stats"
)

// EnergyBin is one slot of the per-component energy timeline.
type EnergyBin struct {
	// Start is the bin's start time.
	Start sim.Time
	// J maps component name to joules spent inside the bin.
	J map[string]float64
}

// Metrics is the rolled-up summary of one run's event stream, produced
// by Collector.Finalize.
type Metrics struct {
	// End is the timestamp the rollup was finalized at.
	End sim.Time
	// Events counts every event received.
	Events int

	// Decisions counts governor frequency decisions; BoostDecisions the
	// subset forced to the top OPP.
	Decisions, BoostDecisions int
	// DecisionOPP counts decisions per chosen OPP index.
	DecisionOPP map[int]int
	// SlackS collects per-decision slack in seconds (boosts excluded);
	// use stats.Percentile for quantiles.
	SlackS []float64
	// PredRelErr collects |predicted − measured| / measured per frame
	// with both a prediction and a measurement.
	PredRelErr []float64

	// DecodeLatency histograms decode-start→decode-end wall time over
	// [0, 50 ms) in 25 bins.
	DecodeLatency *stats.Histogram
	// FramesShown and FramesDropped count display outcomes.
	FramesShown, FramesDropped int

	// OPPSwitches counts DVFS transitions; OPPResidency maps OPP index
	// to dwell time.
	OPPSwitches  int
	OPPResidency map[int]sim.Time
	// RRCResidency maps radio state name to dwell time.
	RRCResidency map[string]sim.Time
	// RungSwitches counts ABR rendition changes after the initial pick.
	RungSwitches int

	// EnergyJ maps component name to total joules integrated from power
	// events; Timeline slices the same integral into fixed-width bins.
	EnergyJ  map[string]float64
	Timeline []EnergyBin
}

// PredErrP returns the given percentile of relative prediction error.
func (m Metrics) PredErrP(pct float64) float64 { return stats.Percentile(m.PredRelErr, pct) }

// SlackP returns the given percentile of decision slack in seconds.
func (m Metrics) SlackP(pct float64) float64 { return stats.Percentile(m.SlackS, pct) }

// powerTrack integrates one component's piecewise-constant power.
type powerTrack struct {
	watts float64
	since sim.Time
}

// Collector is a Tracer that accumulates the event stream into Metrics.
// It allocates only amortized slice/map growth per event, so it is cheap
// enough to run alongside a sink via Tee. Call Finalize once, at the
// run's end time, to close open dwell intervals and obtain the rollup.
type Collector struct {
	// BinWidth sets the energy-timeline bin width (default 1 s).
	BinWidth sim.Time

	m Metrics

	oppIdx   int
	oppSince sim.Time

	// The radio starts in IDLE at t = 0, as netsim.NewRadio does.
	rrcState string
	rrcSince sim.Time

	decodeStart map[int]sim.Time
	pred        map[int]float64

	power map[string]*powerTrack
	last  sim.Time
}

// NewCollector returns an empty collector with 1 s timeline bins.
func NewCollector() *Collector {
	lat, err := stats.NewHistogram(0, 0.050, 25)
	if err != nil {
		panic(err) // static bounds; unreachable
	}
	return &Collector{
		BinWidth: sim.Second,
		m: Metrics{
			DecisionOPP:   make(map[int]int),
			DecodeLatency: lat,
			OPPResidency:  make(map[int]sim.Time),
			RRCResidency:  make(map[string]sim.Time),
			EnergyJ:       make(map[string]float64),
		},
		rrcState:    "IDLE",
		decodeStart: make(map[int]sim.Time),
		pred:        make(map[int]float64),
		power:       make(map[string]*powerTrack),
	}
}

func (c *Collector) tick(t sim.Time) {
	c.m.Events++
	if t > c.last {
		c.last = t
	}
}

// Decision implements Tracer.
func (c *Collector) Decision(e DecisionEvent) {
	c.tick(e.T)
	c.m.Decisions++
	c.m.DecisionOPP[e.OPP]++
	if e.Boost {
		c.m.BoostDecisions++
		return
	}
	c.m.SlackS = append(c.m.SlackS, e.Slack.Seconds())
	if e.PredCycles > 0 {
		c.pred[e.Frame] = e.PredCycles
	}
}

// Frame implements Tracer.
func (c *Collector) Frame(e FrameEvent) {
	c.tick(e.T)
	switch e.Stage {
	case StageDecodeStart:
		c.decodeStart[e.Frame] = e.T
	case StageDecodeEnd:
		if start, ok := c.decodeStart[e.Frame]; ok {
			delete(c.decodeStart, e.Frame)
			c.m.DecodeLatency.Add((e.T - start).Seconds())
		}
		if pred, ok := c.pred[e.Frame]; ok {
			delete(c.pred, e.Frame)
			if e.Cycles > 0 {
				rel := (pred - e.Cycles) / e.Cycles
				if rel < 0 {
					rel = -rel
				}
				c.m.PredRelErr = append(c.m.PredRelErr, rel)
			}
		}
	case StageShown:
		c.m.FramesShown++
	case StageDropped:
		c.m.FramesDropped++
	}
}

// OPP implements Tracer.
func (c *Collector) OPP(e OPPEvent) {
	c.tick(e.T)
	c.m.OPPSwitches++
	c.m.OPPResidency[c.oppIdx] += e.T - c.oppSince
	c.oppIdx = e.To
	c.oppSince = e.T
}

// CPUBusy implements Tracer.
func (c *Collector) CPUBusy(e CPUBusyEvent) { c.tick(e.T) }

// RRC implements Tracer.
func (c *Collector) RRC(e RRCEvent) {
	c.tick(e.T)
	c.m.RRCResidency[c.rrcState] += e.T - c.rrcSince
	c.rrcState = e.State
	c.rrcSince = e.T
}

// ABR implements Tracer.
func (c *Collector) ABR(e ABREvent) {
	c.tick(e.T)
	if e.FromRung >= 0 {
		c.m.RungSwitches++
	}
}

// Buffer implements Tracer.
func (c *Collector) Buffer(e BufferEvent) { c.tick(e.T) }

// Playback implements Tracer.
func (c *Collector) Playback(e PlaybackEvent) { c.tick(e.T) }

// Power implements Tracer.
func (c *Collector) Power(e PowerEvent) {
	c.tick(e.T)
	tr, ok := c.power[e.Component]
	if !ok {
		tr = &powerTrack{since: e.T}
		c.power[e.Component] = tr
	}
	c.integrate(e.Component, tr, e.T)
	tr.watts = e.Watts
	tr.since = e.T
}

// integrate charges tr.watts over [tr.since, until] into the totals and
// the timeline bins, splitting across bin boundaries.
func (c *Collector) integrate(component string, tr *powerTrack, until sim.Time) {
	if until <= tr.since || tr.watts == 0 {
		return
	}
	c.m.EnergyJ[component] += tr.watts * (until - tr.since).Seconds()
	w := c.BinWidth
	if w <= 0 {
		w = sim.Second
	}
	t := tr.since
	for t < until {
		bin := int(t / w)
		binEnd := sim.Time(bin+1) * w
		if binEnd > until {
			binEnd = until
		}
		for len(c.m.Timeline) <= bin {
			c.m.Timeline = append(c.m.Timeline, EnergyBin{
				Start: sim.Time(len(c.m.Timeline)) * w,
				J:     make(map[string]float64),
			})
		}
		c.m.Timeline[bin].J[component] += tr.watts * (binEnd - t).Seconds()
		t = binEnd
	}
}

// Finalize closes all open dwell and power intervals at end (the run's
// final virtual time; the latest event time is used if end is earlier)
// and returns the rollup. The collector must not receive further events.
func (c *Collector) Finalize(end sim.Time) Metrics {
	if end < c.last {
		end = c.last
	}
	c.m.End = end
	c.m.OPPResidency[c.oppIdx] += end - c.oppSince
	c.oppSince = end
	c.m.RRCResidency[c.rrcState] += end - c.rrcSince
	c.rrcSince = end
	for comp, tr := range c.power {
		c.integrate(comp, tr, end)
		tr.since = end
	}
	return c.m
}

var _ Tracer = (*Collector)(nil)

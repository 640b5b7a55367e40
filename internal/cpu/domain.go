package cpu

import (
	"fmt"

	"videodvfs/internal/sim"
)

// Domain couples several cores to one shared clock, the way a phone
// cluster scales: the governor sets one OPP and every core in the domain
// follows. Jobs submitted to the domain are placed on an idle core when
// one exists, otherwise on the core with the least queued work — a
// simplified load-balancing scheduler.
type Domain struct {
	model Model
	cores []*Core
}

// NewDomain returns a domain of n cores of the given model, all parked at
// the lowest OPP.
func NewDomain(eng *sim.Engine, model Model, n int) (*Domain, error) {
	if n < 1 {
		return nil, fmt.Errorf("cpu: domain needs at least one core, got %d", n)
	}
	d := &Domain{model: model, cores: make([]*Core, 0, n)}
	for i := 0; i < n; i++ {
		c, err := NewCore(eng, model)
		if err != nil {
			return nil, err
		}
		d.cores = append(d.cores, c)
	}
	return d, nil
}

// Model returns the device model the domain runs.
func (d *Domain) Model() Model { return d.model }

// Cores returns the domain's cores (shared slice; do not mutate).
func (d *Domain) Cores() []*Core { return d.cores }

// SetOPP switches every core in the domain (per-cluster DVFS).
func (d *Domain) SetOPP(idx int) {
	for _, c := range d.cores {
		c.SetOPP(idx)
	}
}

// Submit places the job on an idle core if any, else on the core with the
// shortest queue.
func (d *Domain) Submit(j Job) error {
	best := d.cores[0]
	for _, c := range d.cores {
		if !c.Busy() && c.QueueLen() == 0 {
			best = c
			break
		}
		if c.QueueLen() < best.QueueLen() || (best.Busy() && !c.Busy()) {
			best = c
		}
	}
	return best.Submit(j)
}

// Power returns the domain's total draw in watts.
func (d *Domain) Power() float64 {
	var sum float64
	for _, c := range d.cores {
		sum += c.Power()
	}
	return sum
}

// OnPower registers a single aggregated power listener across all cores.
func (d *Domain) OnPower(fn func(now sim.Time, watts float64)) {
	for _, c := range d.cores {
		c.OnPower(func(now sim.Time, _ float64) { fn(now, d.Power()) })
	}
}

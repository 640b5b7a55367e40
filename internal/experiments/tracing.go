package experiments

import (
	"sync"

	"videodvfs/internal/energy"
	"videodvfs/internal/sim"
	"videodvfs/internal/trace"
)

// TraceFactory supplies a tracer for a run whose config does not carry
// one. rig names the CPU platform a RunCluster or RunSMP run simulates
// ("biglittle", "biglittle-aware", "smp2", …) and is empty for the single
// core every other run has, so one config run on two platforms can be
// told apart. It returns the tracer plus a close function invoked after
// the run finishes (nil if nothing needs closing). Factories must be safe
// for concurrent calls: batch runners invoke Run from many goroutines.
type TraceFactory func(cfg RunConfig, rig string) (trace.Tracer, func() error)

var (
	traceFactoryMu sync.RWMutex
	traceFactory   TraceFactory
)

// SetTraceFactory installs a process-wide trace factory consulted by
// every Session run (Run, RunCluster, RunSMP) whenever RunConfig.Tracer
// is nil. It exists for batch drivers (exprun
// -trace-dir) whose experiment builders construct configs internally and
// offer no per-run hook; nil uninstalls. An explicit RunConfig.Tracer
// always wins over the factory.
func SetTraceFactory(f TraceFactory) {
	traceFactoryMu.Lock()
	traceFactory = f
	traceFactoryMu.Unlock()
}

func currentTraceFactory() TraceFactory {
	traceFactoryMu.RLock()
	defer traceFactoryMu.RUnlock()
	return traceFactory
}

// tracedListener returns the meter's power listener for component,
// additionally mirrored to the tracer as PowerEvents when tr is non-nil.
// The energy.Meter listener discards the timestamp (the meter reads the
// engine clock itself), so the tracer tap re-attaches it.
func tracedListener(meter *energy.Meter, component string, tr trace.Tracer) func(now sim.Time, watts float64) {
	inner := meter.Listener(component)
	if tr == nil {
		return inner
	}
	return func(now sim.Time, watts float64) {
		inner(now, watts)
		tr.Power(trace.PowerEvent{T: now, Component: component, Watts: watts})
	}
}

package main

// catalogMetric is one metric the benchmark reports. BENCHMARK.json lists
// the same names, units and directions, and README.md which end-to-end
// metric each per-layer one should move; a test keeps BENCHMARK.json in
// step.
type catalogMetric struct {
	name, unit, better string
}

// endToEndCatalog lists the metrics an untraced run reports on every
// workload.
var endToEndCatalog = []catalogMetric{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"content_s_per_s", "s/s", "higher"},
	{"peak_heap_mb", "MB", "lower"},
}

// perLayerCatalog lists the metrics a traced run reports. A metric whose
// layer a workload does not exercise reads 0 on that workload.
var perLayerCatalog = append([]catalogMetric{
	// Timings from the traced run's spans.
	{"experiments.reset_us_p50", "us", "lower"},
	{"experiments.finish_us_p50", "us", "lower"},
	{"experiments.finish_ns_per_frame", "ns", "lower"},
	{"cohort.rollup_step_ms_p50", "ms", "lower"},
	{"cohort.rollup_step_ms_max", "ms", "lower"},
	{"cohort.ms_per_active_viewer_step", "ms", "lower"},
	{"server.hit_us_p50", "us", "lower"},
	{"server.hit_us_p99", "us", "lower"},
	{"server.miss_ms_p50", "ms", "lower"},
	{"server.miss_ms_p99", "ms", "lower"},
	{"server.simulate_ms_p50", "ms", "lower"},
	{"server.overhead_us_mean", "us", "lower"},
	{"server.sweep_ms_p50", "ms", "lower"},
	{"server.trace_ms_p50", "ms", "lower"},
	{"trace.bytes_per_run", "bytes", "lower"},
	{"fleet.dispatch_ms_p50", "ms", "lower"},
	{"fleet.dispatch_ms_p99", "ms", "lower"},
	{"fleet.fanout_gap_ms_p50", "ms", "lower"},
	{"fleet.dispatch_inflight_max", "count", "higher"},
	// Counters read from outside.
	{"server.hit_ratio", "ratio", "higher"},
	{"server.coalesced_share", "ratio", "higher"},
	{"server.overloaded_share", "ratio", "lower"},
	{"server.queue_depth_mean", "count", "lower"},
	{"fleet.retries_per_sweep", "count", "lower"},
	{"fleet.overloaded_per_sweep", "count", "lower"},
	{"fleet.worker_hit_ratio", "ratio", "higher"},
	{"fleet.dispatch_imbalance", "ratio", "lower"},
	{"experiments.allocs_per_run", "count", "lower"},
	{"experiments.alloc_bytes_per_run", "bytes", "lower"},
	{"cohort.allocs_per_viewer", "count", "lower"},
	{"cohort.alloc_bytes_per_viewer", "bytes", "lower"},
	{"cohort.peak_active_viewers", "count", "lower"},
	{"runtime.gc_cpu_share", "ratio", "lower"},
	// Modelled work, counted exactly on run-sweep: a speed-only change
	// must leave these unchanged.
	{"core.decisions_per_run", "count", "lower"},
	{"cpu.opp_transitions_per_run", "count", "lower"},
	{"cpu.busy_transitions_per_run", "count", "lower"},
	{"decode.frames_decoded_per_run", "count", "lower"},
	{"player.frames_dropped_per_run", "count", "lower"},
	{"netsim.rrc_transitions_per_run", "count", "lower"},
	{"abr.switches_per_run", "count", "lower"},
	{"energy.power_steps_per_run", "count", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
}, shareCatalog()...)

// shareCatalog lists the CPU self-time shares every traced run reports.
func shareCatalog() []catalogMetric {
	var out []catalogMetric
	for _, n := range shareNames() {
		out = append(out, catalogMetric{n, "ratio", "lower"})
	}
	return out
}

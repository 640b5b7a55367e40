package videodvfs

// The benchmark harness regenerates every table and figure of the
// evaluation (see DESIGN.md §4 and EXPERIMENTS.md). Each benchmark times a
// full rebuild of its experiment and prints the resulting rows once, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation in one run. Absolute joule numbers are
// model-calibrated, not testbed measurements; the shapes (who wins, by
// what factor, where the knees fall) are what the reproduction asserts.

import (
	"bytes"
	"fmt"
	"testing"

	"videodvfs/internal/campaign"
	"videodvfs/internal/cohort"
	"videodvfs/internal/experiments"
	"videodvfs/internal/sim"
	"videodvfs/internal/trace"
)

// printedTables ensures each experiment's rows print once per process even
// if the benchmark runs many iterations.
var printedTables = map[string]bool{}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	builder, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	var tab experiments.Table
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err = builder()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if !printedTables[id] {
		printedTables[id] = true
		fmt.Println(tab.Format())
	}
}

// BenchmarkTableT1_OPPTable regenerates Table 1 (device OPP tables).
func BenchmarkTableT1_OPPTable(b *testing.B) { benchExperiment(b, "t1") }

// BenchmarkFigF1_PowerCurve regenerates Figure 1 (power vs frequency).
func BenchmarkFigF1_PowerCurve(b *testing.B) { benchExperiment(b, "f1") }

// BenchmarkFigF2_DecodeTime regenerates Figure 2 (decode time vs
// frequency by resolution).
func BenchmarkFigF2_DecodeTime(b *testing.B) { benchExperiment(b, "f2") }

// BenchmarkFigF3_OndemandResidency regenerates Figure 3 (motivation:
// ondemand residency vs actual need).
func BenchmarkFigF3_OndemandResidency(b *testing.B) { benchExperiment(b, "f3") }

// BenchmarkFigF4_Residency regenerates Figure 4 (frequency residency by
// governor).
func BenchmarkFigF4_Residency(b *testing.B) { benchExperiment(b, "f4") }

// BenchmarkFigF5_EnergyByGovernor regenerates Figure 5 (headline: CPU
// energy by governor × resolution).
func BenchmarkFigF5_EnergyByGovernor(b *testing.B) { benchExperiment(b, "f5") }

// BenchmarkFigF6_MissRate regenerates Figure 6 (dropped frames by
// governor × resolution).
func BenchmarkFigF6_MissRate(b *testing.B) { benchExperiment(b, "f6") }

// BenchmarkTableT2_QoE regenerates Table 2 (QoE summary per policy).
func BenchmarkTableT2_QoE(b *testing.B) { benchExperiment(b, "t2") }

// BenchmarkFigF7_BufferSlack regenerates Figure 7 (energy vs decode-ahead
// depth).
func BenchmarkFigF7_BufferSlack(b *testing.B) { benchExperiment(b, "f7") }

// BenchmarkFigF8_MarginSweep regenerates Figure 8 (safety-margin sweep).
func BenchmarkFigF8_MarginSweep(b *testing.B) { benchExperiment(b, "f8") }

// BenchmarkFigF9_Predictor regenerates Figure 9 (predictor-family
// ablation).
func BenchmarkFigF9_Predictor(b *testing.B) { benchExperiment(b, "f9") }

// BenchmarkFigF10_Networks regenerates Figure 10 (savings across network
// conditions).
func BenchmarkFigF10_Networks(b *testing.B) { benchExperiment(b, "f10") }

// BenchmarkFigF11_Breakdown regenerates Figure 11 (whole-device energy
// breakdown).
func BenchmarkFigF11_Breakdown(b *testing.B) { benchExperiment(b, "f11") }

// BenchmarkFigF12_OracleGap regenerates Figure 12 (gap to the offline
// oracle).
func BenchmarkFigF12_OracleGap(b *testing.B) { benchExperiment(b, "f12") }

// BenchmarkTableT3_Radio regenerates Table 3 (radio coordination: burst
// prefetch × fast dormancy).
func BenchmarkTableT3_Radio(b *testing.B) { benchExperiment(b, "t3") }

// BenchmarkFigF13_ABR regenerates Figure 13 (ABR × governor interaction).
func BenchmarkFigF13_ABR(b *testing.B) { benchExperiment(b, "f13") }

// BenchmarkFigF14_Thermal regenerates Figure 14 (thermal envelope and
// throttling, extension).
func BenchmarkFigF14_Thermal(b *testing.B) { benchExperiment(b, "f14") }

// BenchmarkFigF15_BigLITTLE regenerates Figure 15 (big.LITTLE decode
// placement, extension).
func BenchmarkFigF15_BigLITTLE(b *testing.B) { benchExperiment(b, "f15") }

// BenchmarkFigF16_RaceVsPace regenerates Figure 16 (race-to-idle vs
// pacing under cpuidle, extension).
func BenchmarkFigF16_RaceVsPace(b *testing.B) { benchExperiment(b, "f16") }

// BenchmarkTableT4_BatteryLife regenerates Table 4 (streaming hours per
// charge, extension).
func BenchmarkTableT4_BatteryLife(b *testing.B) { benchExperiment(b, "t4") }

// BenchmarkFigF17_CodecTrade regenerates Figure 17 (H.264 vs HEVC
// CPU/radio trade, extension).
func BenchmarkFigF17_CodecTrade(b *testing.B) { benchExperiment(b, "f17") }

// BenchmarkFigF18_Devices regenerates Figure 18 (device-class
// generality, extension).
func BenchmarkFigF18_Devices(b *testing.B) { benchExperiment(b, "f18") }

// BenchmarkFigF19_LowLatency regenerates Figure 19 (low-latency live
// mode, extension).
func BenchmarkFigF19_LowLatency(b *testing.B) { benchExperiment(b, "f19") }

// BenchmarkTableT5_CellCapacity regenerates Table 5 (multi-user cell
// capacity vs the analytic M/G/N model, extension).
func BenchmarkTableT5_CellCapacity(b *testing.B) { benchExperiment(b, "t5") }

// BenchmarkTableT6_SegmentDuration regenerates Table 6 (segment-duration
// trade, extension).
func BenchmarkTableT6_SegmentDuration(b *testing.B) { benchExperiment(b, "t6") }

// BenchmarkFigF20_SwitchOverhead regenerates Figure 20 (DVFS-switch
// overhead sensitivity, extension).
func BenchmarkFigF20_SwitchOverhead(b *testing.B) { benchExperiment(b, "f20") }

// BenchmarkTableT7_UsageSession regenerates Table 7 (playlist usage
// session: CPU policy × fast dormancy, extension).
func BenchmarkTableT7_UsageSession(b *testing.B) { benchExperiment(b, "t7") }

// BenchmarkFigF21_SMP regenerates Figure 21 (shared-clock SMP /
// consolidation trade, extension).
func BenchmarkFigF21_SMP(b *testing.B) { benchExperiment(b, "f21") }

// BenchmarkRunNoTrace times one 60 s default session with tracing off —
// the baseline for the no-op tracer contract (every emit site is a nil
// check, so this must match the pre-observability cost).
func BenchmarkRunNoTrace(b *testing.B) {
	cfg := experiments.DefaultRunConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunReset times the same 60 s session on one explicitly
// recycled arena with a reused result struct — the campaign/dvfsd steady
// state. The contract is 0 allocs/op: the whole simulation (Reset, event
// loop, result collection) runs out of the arena's pools; bench-gate
// fails the build if an allocation creeps back in.
func BenchmarkRunReset(b *testing.B) {
	cfg := experiments.DefaultRunConfig()
	s := experiments.NewSession()
	var res experiments.RunResult
	if err := s.RunInto(cfg, &res); err != nil { // construct + warm the arena
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.RunInto(cfg, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunJSONL times the same session while streaming its full
// event trace through the JSONL sink into a reused in-memory buffer —
// the marginal cost of turning tracing on.
func BenchmarkRunJSONL(b *testing.B) {
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		cfg := experiments.DefaultRunConfig()
		sink := trace.NewJSONL(&buf)
		cfg.Tracer = sink
		if _, err := experiments.Run(cfg); err != nil {
			b.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunStrict times the same session with the invariant checker
// auditing its event stream (DESIGN.md §10) — the cost of one run under
// `make strict`. Like BenchmarkRunJSONL it stays out of bench-gate: a
// traced run's B/op moves with GC timing.
func BenchmarkRunStrict(b *testing.B) {
	cfg := experiments.DefaultRunConfig()
	cfg.Strict = true
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCohortStep times a whole cohort iteration: 256 viewers of a
// 5 s session stepped inside shared virtual-time engines with online
// aggregation. bench-gate holds the per-iteration time and allocation
// budget; the viewers/sec custom metric is informational (benchgate
// skips units it doesn't budget).
func BenchmarkCohortStep(b *testing.B) {
	cfg := cohort.DefaultConfig()
	cfg.Base.Duration = 5 * sim.Second
	cfg.Viewers = 256
	cfg.Rollup = 5 * sim.Second
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := cohort.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed != cfg.Viewers {
			b.Fatalf("only %d/%d viewers completed (%s)", res.Completed, cfg.Viewers, res.FirstError)
		}
	}
	b.ReportMetric(float64(cfg.Viewers)*float64(b.N)/b.Elapsed().Seconds(), "viewers/sec")
}

// benchRegistry rebuilds every experiment through the campaign pool at
// the given worker count. The serial/parallel pair measures the
// end-to-end speedup of the parallel campaign runner; output is
// identical at every width, so only wall-clock differs.
func benchRegistry(b *testing.B, workers int) {
	b.Helper()
	ids := experiments.IDs()
	for i := 0; i < b.N; i++ {
		jobs := make([]campaign.Job[experiments.Table], len(ids))
		for j, id := range ids {
			builder, err := experiments.Get(id)
			if err != nil {
				b.Fatal(err)
			}
			jobs[j] = func() (experiments.Table, error) { return builder() }
		}
		outs := campaign.Do(jobs, campaign.Options{Workers: workers})
		if _, err := campaign.Values(outs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegistrySerial rebuilds all 30 experiments on one worker.
func BenchmarkRegistrySerial(b *testing.B) { benchRegistry(b, 1) }

// BenchmarkRegistryParallel rebuilds all 30 experiments across
// GOMAXPROCS workers (identical output, less wall-clock on multicore).
func BenchmarkRegistryParallel(b *testing.B) { benchRegistry(b, 0) }

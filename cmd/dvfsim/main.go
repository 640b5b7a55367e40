// Command dvfsim runs one streaming-DVFS simulation and prints a full
// report: energy per component, QoE, frequency residency, and radio state
// residency. Batch mode (-batch N) fans the same session across N seeds
// through the campaign worker pool and prints per-seed lines plus
// aggregate statistics.
//
// Usage:
//
//	dvfsim -governor energyaware -res 720p -title sports -net const8 \
//	       -duration 60 -seed 1
//	dvfsim -batch 16 -parallel 8   # seeds 1..16, aggregate stats
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"videodvfs"
	"videodvfs/internal/netsim"
	"videodvfs/internal/profiling"
	"videodvfs/internal/stats"
	"videodvfs/internal/video"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dvfsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dvfsim", flag.ContinueOnError)
	var (
		governorName = fs.String("governor", "energyaware", "governor: "+strings.Join(videodvfs.GovernorNames(), ", "))
		device       = fs.String("device", "flagship", "device model: flagship, midrange, efficient")
		resName      = fs.String("res", "720p", "pinned resolution (fixed ABR): 360p, 480p, 720p, 1080p")
		titleName    = fs.String("title", "sports", "content profile: news, sports, animation")
		net          = fs.String("net", "const8", "network: wifi, const8, lte, umts, trace")
		bwTracePath  = fs.String("trace-file", "", "bandwidth trace JSONL (from dvfsstress play or tracegen -kind bandwidth) replayed with -net trace")
		abrName      = fs.String("abr", "fixed", "ABR: fixed, rate, bba")
		duration     = fs.Float64("duration", 60, "content length in seconds")
		seed         = fs.Int64("seed", 1, "random seed")
		queueCap     = fs.Int("buffer", 0, "decoded-frame buffer depth (0 = default 8)")
		lowWater     = fs.Float64("lowwater", 0, "burst-prefetch low-water mark in seconds (0 = trickle)")
		forecastName = fs.String("forecast", "", "predictive prefetch: oracle, noisy (requires -lowwater)")
		forecastLook = fs.Float64("forecast-lookahead", 0, "forecast lookahead window in seconds (0 = default)")
		forecastErr  = fs.Float64("forecast-err", 0, "noisy forecast relative error (with -forecast noisy)")
		forecastSeed = fs.Int64("forecast-seed", 0, "noisy forecast error seed (0 = run seed)")
		fastDorm     = fs.Bool("fastdormancy", false, "release the radio immediately after each burst")
		noBackground = fs.Bool("nobackground", false, "disable the UI/OS background load")
		strict       = fs.Bool("strict", false, "audit the run against the simulator's invariants; any breach fails the run")
		tracePath    = fs.String("videotrace", "", "replay a CSV frame trace (from tracegen) instead of generating one")
		traceOut     = fs.String("trace", "", "write the run's structured event stream as JSONL to this file ('-' = stdout)")
		jsonOut      = fs.Bool("json", false, "emit the result as JSON instead of the text report")
		timelinePath = fs.String("timeline", "", "write a 100 ms time-series CSV (t_s, freq_ghz, cpu_w, buffer_s) for plotting")
		batch        = fs.Int("batch", 0, "run N sessions with seeds seed..seed+N-1 and report aggregate stats")
		parallel     = fs.Int("parallel", runtime.NumCPU(), "worker count for -batch")
		viewers      = fs.Int("viewers", 0, "cohort mode: step N viewers inside shared virtual-time engines (0 = single session)")
		arrival      = fs.String("arrival", "all", "cohort arrival process: all, uniform, burst, poisson")
		arrivalWin   = fs.Float64("arrival-window", 0, "cohort join window in virtual seconds (uniform, burst)")
		arrivalRate  = fs.Float64("arrival-rate", 0, "cohort mean joins per second (poisson)")
		cellMbps     = fs.Float64("cell-mbps", 0, "cohort shared sector capacity in Mbps (0 = no shared cell)")
		cellFlowMbps = fs.Float64("cell-flow-mbps", 0, "per-viewer cap within a sector in Mbps (0 = full capacity)")
		sectors      = fs.Int("sectors", 0, "cohort cell sector count (0 = 1)")
		rollup       = fs.Float64("rollup", 0, "cohort rollup period in virtual seconds (0 = 10)")
		shards       = fs.Int("shards", 0, "cohort engine shards (0 = derived from viewers; pins float merge order)")
		cpuProf      = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf      = fs.String("memprofile", "", "write a pprof heap profile (after the run) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProf()

	cfg := videodvfs.DefaultSession()
	if cfg.Governor, err = videodvfs.ParseGovernor(*governorName); err != nil {
		return err
	}
	if cfg.ABR, err = videodvfs.ParseABR(*abrName); err != nil {
		return err
	}
	if cfg.Net, err = videodvfs.ParseNet(*net); err != nil {
		return err
	}
	cfg.Duration = videodvfs.Time(*duration) * videodvfs.Second
	cfg.Seed = *seed
	cfg.DecodedQueueCap = *queueCap
	cfg.LowWaterSec = *lowWater
	if cfg.Forecast, err = videodvfs.ParseForecast(*forecastName); err != nil {
		return err
	}
	cfg.ForecastLookahead = videodvfs.Time(*forecastLook) * videodvfs.Second
	cfg.ForecastRelErr = *forecastErr
	cfg.ForecastSeed = *forecastSeed
	cfg.Background = !*noBackground
	cfg.Strict = *strict

	if cfg.Device, err = videodvfs.DeviceByName(*device); err != nil {
		return err
	}
	if cfg.Title, err = videodvfs.TitleByName(*titleName); err != nil {
		return err
	}
	if cfg.Rung, err = videodvfs.ResolutionByName(*resName); err != nil {
		return err
	}
	if *fastDorm {
		rrc := netsim.DefaultUMTS()
		if cfg.Net != videodvfs.NetUMTS {
			rrc = netsim.DefaultLTE()
		}
		rrc.FastDormancy = true
		cfg.RRC = &rrc
	}

	if *bwTracePath != "" {
		f, ferr := os.Open(*bwTracePath)
		if ferr != nil {
			return ferr
		}
		tr, rerr := videodvfs.ReadBWTrace(f)
		if cerr := f.Close(); rerr == nil && cerr != nil {
			rerr = cerr
		}
		if rerr != nil {
			return rerr
		}
		cfg.BWTrace = &tr
	}

	if *tracePath != "" {
		f, ferr := os.Open(*tracePath)
		if ferr != nil {
			return ferr
		}
		stream, rerr := video.ReadTrace(f, video.DefaultSpec(cfg.Title, cfg.Rung))
		if cerr := f.Close(); rerr == nil && cerr != nil {
			rerr = cerr
		}
		if rerr != nil {
			return rerr
		}
		cfg.Trace = stream
		cfg.Duration = 0 // derive from the trace
	}

	if *viewers > 0 {
		if *batch > 0 {
			return fmt.Errorf("-viewers (cohort mode) and -batch are mutually exclusive")
		}
		if *timelinePath != "" || *traceOut != "" {
			return fmt.Errorf("-timeline and -trace are per-run and incompatible with -viewers")
		}
		ccfg := videodvfs.DefaultCohort()
		ccfg.Base = cfg
		ccfg.Viewers = *viewers
		ccfg.Arrival = videodvfs.CohortArrival{
			Kind:       videodvfs.ArrivalKind(*arrival),
			Window:     videodvfs.Time(*arrivalWin) * videodvfs.Second,
			RatePerSec: *arrivalRate,
		}
		ccfg.Rollup = videodvfs.Time(*rollup) * videodvfs.Second
		ccfg.Shards = *shards
		if *cellMbps != 0 {
			ccfg.Cell = &videodvfs.CohortCell{
				CapacityMbps:  *cellMbps,
				PerViewerMbps: *cellFlowMbps,
				Sectors:       *sectors,
			}
		}
		return cohortRun(os.Stdout, ccfg, *jsonOut)
	}

	if *batch > 0 {
		if *timelinePath != "" {
			return fmt.Errorf("-timeline is per-run and incompatible with -batch")
		}
		if *traceOut != "" {
			return fmt.Errorf("-trace is per-run and incompatible with -batch")
		}
		return batchRun(os.Stdout, cfg, *batch, *parallel, *jsonOut)
	}

	var traceSink videodvfs.TraceSink
	if *traceOut != "" {
		// Shield stdout from the sink's Close (it closes io.Closers).
		w := io.Writer(struct{ io.Writer }{os.Stdout})
		if *traceOut != "-" {
			f, terr := os.Create(*traceOut)
			if terr != nil {
				return terr
			}
			defer f.Close()
			w = f
		}
		traceSink = videodvfs.NewJSONLTracer(w)
		cfg.Tracer = traceSink
	}

	var timeline *csv.Writer
	if *timelinePath != "" {
		f, terr := os.Create(*timelinePath)
		if terr != nil {
			return terr
		}
		defer func() {
			timeline.Flush()
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "dvfsim: close timeline:", cerr)
			}
		}()
		timeline = csv.NewWriter(f)
		if terr := timeline.Write([]string{"t_s", "freq_ghz", "cpu_w", "buffer_s"}); terr != nil {
			return terr
		}
		cfg.OnSample = func(t videodvfs.Time, freqGHz, cpuW, bufferSec float64) {
			_ = timeline.Write([]string{
				strconv.FormatFloat(t.Seconds(), 'f', 1, 64),
				strconv.FormatFloat(freqGHz, 'f', 3, 64),
				strconv.FormatFloat(cpuW, 'f', 3, 64),
				strconv.FormatFloat(bufferSec, 'f', 2, 64),
			})
		}
	}

	res, err := videodvfs.Run(cfg)
	if traceSink != nil {
		if cerr := traceSink.Close(); cerr != nil && err == nil {
			return fmt.Errorf("trace sink: %w", cerr)
		}
	}
	if err != nil {
		return err
	}
	if *jsonOut {
		return reportJSON(os.Stdout, res)
	}
	report(cfg, res)
	return nil
}

// batchRun fans cfg across n seeds through the campaign pool and reports
// per-seed lines plus aggregate statistics (or a JSON array with -json).
func batchRun(w io.Writer, cfg videodvfs.RunConfig, n, workers int, jsonOut bool) error {
	cfgs := make([]videodvfs.RunConfig, n)
	for i := range cfgs {
		cfgs[i] = cfg
		cfgs[i].Seed = cfg.Seed + int64(i)
	}
	outs := videodvfs.RunAll(cfgs, workers)

	if jsonOut {
		docs := make([]map[string]any, 0, n)
		for _, o := range outs {
			if o.Err != nil {
				return fmt.Errorf("seed %d: %w", o.Config.Seed, o.Err)
			}
			doc := flatDoc(o.Result)
			doc["seed"] = o.Config.Seed
			docs = append(docs, doc)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(docs)
	}

	fmt.Fprintf(w, "batch: %d sessions, %s %s %s over %s, governor=%s abr=%s seeds=%d..%d\n\n",
		n, cfg.Device.Name, cfg.Title.Name, cfg.Rung.Name, cfg.Net, cfg.Governor, cfg.ABR,
		cfg.Seed, cfg.Seed+int64(n-1))
	type metric struct {
		name string
		of   func(videodvfs.RunResult) float64
		acc  stats.Online
	}
	metrics := []*metric{
		{name: "cpu_j", of: func(r videodvfs.RunResult) float64 { return r.CPUJ }},
		{name: "radio_j", of: func(r videodvfs.RunResult) float64 { return r.RadioJ }},
		{name: "total_j", of: func(r videodvfs.RunResult) float64 { return r.TotalJ() }},
		{name: "mean_ghz", of: func(r videodvfs.RunResult) float64 { return r.MeanFreqGHz }},
		{name: "startup_s", of: func(r videodvfs.RunResult) float64 { return r.QoE.StartupDelay.Seconds() }},
		{name: "rebuf_s", of: func(r videodvfs.RunResult) float64 { return r.QoE.RebufferTime.Seconds() }},
		{name: "drops", of: func(r videodvfs.RunResult) float64 { return float64(r.QoE.DroppedFrames) }},
	}
	failed := 0
	for _, o := range outs {
		if o.Err != nil {
			failed++
			fmt.Fprintf(w, "  seed %-4d FAILED: %v\n", o.Config.Seed, o.Err)
			continue
		}
		fmt.Fprintf(w, "  seed %-4d cpu %7.1f J  radio %7.1f J  total %7.1f J  drops %3d  rebuf %5.2f s\n",
			o.Config.Seed, o.Result.CPUJ, o.Result.RadioJ, o.Result.TotalJ(),
			o.Result.QoE.DroppedFrames, o.Result.QoE.RebufferTime.Seconds())
		for _, m := range metrics {
			m.acc.Add(m.of(o.Result))
		}
	}
	fmt.Fprintf(w, "\naggregate over %d runs (%d failed):\n", n-failed, failed)
	fmt.Fprintf(w, "  %-10s %10s %10s %10s %10s\n", "metric", "mean", "std", "min", "max")
	for _, m := range metrics {
		fmt.Fprintf(w, "  %-10s %10.2f %10.2f %10.2f %10.2f\n",
			m.name, m.acc.Mean(), m.acc.Std(), m.acc.Min(), m.acc.Max())
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d runs failed", failed, n)
	}
	return nil
}

// cohortRun executes a cohort and reports the aggregate outcome: rollup
// progress lines during the run, then the final distributions (or the
// CohortResult as JSON with -json).
func cohortRun(w io.Writer, cfg videodvfs.CohortConfig, jsonOut bool) error {
	if !jsonOut {
		cfg.OnRollup = func(r videodvfs.CohortRollup) {
			fmt.Fprintf(w, "  t=%6.0fs joined %7d  active %7d  completed %7d  errors %d\n",
				r.T.Seconds(), r.Joined, r.Active, r.Completed, r.Errors)
		}
		fmt.Fprintf(w, "cohort: %d viewers, %s %s %s over %s, governor=%s arrival=%s\n\n",
			cfg.Viewers, cfg.Base.Device.Name, cfg.Base.Title.Name, cfg.Base.Rung.Name,
			cfg.Base.Net, cfg.Base.Governor, cfg.Arrival.Kind)
	}
	res, err := videodvfs.RunCohort(cfg)
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	fmt.Fprintf(w, "\ncompleted %d/%d (%d horizon-cut, %d errors), sim end %.1f s, %d shards\n",
		res.Completed, res.Viewers, res.HorizonCut, res.Errors, res.SimEnd.Seconds(), res.Shards)
	if res.FirstError != "" {
		fmt.Fprintf(w, "first error: %s\n", res.FirstError)
	}
	fmt.Fprintf(w, "\n  %-14s %10s %10s %10s %10s %10s\n", "metric", "mean", "p10", "p50", "p90", "p99")
	for _, row := range []struct {
		name string
		d    videodvfs.CohortDist
	}{
		{"energy_j", res.EnergyJ},
		{"rebuffer_ratio", res.RebufferRatio},
		{"startup_s", res.StartupDelayS},
	} {
		fmt.Fprintf(w, "  %-14s %10.3f %10.3f %10.3f %10.3f %10.3f\n",
			row.name, row.d.Mean, row.d.P10, row.d.P50, row.d.P90, row.d.P99)
	}
	fmt.Fprintf(w, "\n  component totals: cpu %.0f J, radio %.0f J, display %.0f J\n",
		res.CPUJ, res.RadioJ, res.DisplayJ)
	if res.Errors > 0 {
		return fmt.Errorf("%d of %d viewers failed", res.Errors, res.Viewers)
	}
	return nil
}

// reportJSON emits the result as a flat JSON document for scripting.
func reportJSON(w io.Writer, res videodvfs.RunResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(flatDoc(res))
}

// flatDoc flattens a result into the scripting-friendly JSON shape.
func flatDoc(res videodvfs.RunResult) map[string]any {
	return map[string]any{
		"governor":        res.Governor,
		"cpuJ":            res.CPUJ,
		"radioJ":          res.RadioJ,
		"displayJ":        res.DisplayJ,
		"totalJ":          res.TotalJ(),
		"meanFreqGHz":     res.MeanFreqGHz,
		"simEndS":         res.SimEnd.Seconds(),
		"completed":       res.QoE.Completed,
		"startupS":        res.QoE.StartupDelay.Seconds(),
		"rebufferCount":   res.QoE.RebufferCount,
		"rebufferS":       res.QoE.RebufferTime.Seconds(),
		"droppedFrames":   res.QoE.DroppedFrames,
		"displayedFrames": res.QoE.DisplayedFrames,
		"totalFrames":     res.QoE.TotalFrames,
		"meanRungMbps":    res.QoE.MeanRungBps / 1e6,
		"rungSwitches":    res.QoE.RungSwitches,
		"radioPromotions": res.RadioPromotions,
		"fetches":         res.Fetches,
	}
}

func report(cfg videodvfs.RunConfig, res videodvfs.RunResult) {
	fmt.Printf("session: %s %s %s over %s, governor=%s abr=%s seed=%d\n",
		cfg.Device.Name, cfg.Title.Name, cfg.Rung.Name, cfg.Net, res.Governor, cfg.ABR, cfg.Seed)
	fmt.Printf("completed=%v wall=%.1fs\n\n", res.QoE.Completed, res.SimEnd.Seconds())

	fmt.Println("energy:")
	fmt.Printf("  cpu     %8.1f J\n", res.CPUJ)
	fmt.Printf("  radio   %8.1f J\n", res.RadioJ)
	fmt.Printf("  display %8.1f J\n", res.DisplayJ)
	fmt.Printf("  total   %8.1f J  (mean %.2f W)\n\n", res.TotalJ(), res.TotalJ()/res.SimEnd.Seconds())

	q := res.QoE
	fmt.Println("qoe:")
	fmt.Printf("  startup    %6.2f s\n", q.StartupDelay.Seconds())
	fmt.Printf("  rebuffers  %6d  (%.2f s)\n", q.RebufferCount, q.RebufferTime.Seconds())
	fmt.Printf("  dropped    %6d / %d (%.2f%%)\n", q.DroppedFrames, q.TotalFrames, q.DropRate()*100)
	fmt.Printf("  mean rate  %6.2f Mbps, %d switches\n\n", q.MeanRungBps/1e6, q.RungSwitches)

	fmt.Printf("cpu: mean %.2f GHz, residency by OPP:\n", res.MeanFreqGHz)
	idxs := make([]int, 0, len(res.FreqResidency))
	for idx := range res.FreqResidency {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		if idx < 0 || idx >= len(cfg.Device.OPPs) {
			continue
		}
		sec := res.FreqResidency[idx].Seconds()
		fmt.Printf("  %5.0f MHz %7.1f s  %s\n", cfg.Device.OPPs[idx].FreqHz/1e6, sec,
			strings.Repeat("#", int(40*sec/res.SimEnd.Seconds())))
	}

	fmt.Printf("\nradio: %d promotions, residency:\n", res.RadioPromotions)
	for _, st := range []netsim.RRCState{netsim.StateDCH, netsim.StateFACH, netsim.StateIdle} {
		fmt.Printf("  %-5s %7.1f s\n", st, res.RadioResidency[st].Seconds())
	}
	if res.Pred != nil && res.Pred.N > 0 {
		fmt.Printf("\npredictor: n=%d under=%.1f%% relerr p50=%.1f%% p99=%.1f%%\n",
			res.Pred.N, res.Pred.UnderRate()*100, res.Pred.RelErrP(50)*100, res.Pred.RelErrP(99)*100)
	}
}

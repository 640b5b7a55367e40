// Command exprun regenerates the evaluation's tables and figures.
//
// Experiments fan out through the campaign worker pool at two levels:
// whole experiments run concurrently (-parallel), and each experiment's
// own config grid is batched across GOMAXPROCS workers internally. Every
// run is deterministic, so output is byte-identical for any worker count.
//
// Usage:
//
//	exprun                    # run every experiment
//	exprun -list              # list experiment IDs
//	exprun -exp f5,f6         # run selected experiments
//	exprun -parallel 8        # experiment-level worker count
//	exprun -progress          # campaign progress on stderr
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"videodvfs"
	"videodvfs/internal/campaign"
	"videodvfs/internal/experiments"
	"videodvfs/internal/profiling"
	"videodvfs/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "exprun:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("exprun", flag.ContinueOnError)
	var (
		list     = fs.Bool("list", false, "list experiment IDs and exit")
		exp      = fs.String("exp", "", "comma-separated experiment IDs (default: all)")
		format   = fs.String("format", "text", "output format: text, markdown, csv")
		parallel = fs.Int("parallel", runtime.NumCPU(), "experiments built concurrently (each batches its own runs internally)")
		progress = fs.Bool("progress", false, "print campaign progress to stderr")
		traceDir = fs.String("trace-dir", "", "write one JSONL event trace per simulation run into this directory")
		strict   = fs.Bool("strict", false, "audit every simulation run against the simulator's invariants; any breach fails its experiment")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile of the campaign to this file")
		memProf  = fs.String("memprofile", "", "write a pprof heap profile (after the campaign) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProf()
	if *strict {
		// Experiments build their RunConfigs internally, so strict mode is
		// armed process-wide rather than per-config.
		defer experiments.SetStrictDefault(experiments.SetStrictDefault(true))
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return err
		}
		experiments.SetTraceFactory(traceDirFactory(*traceDir))
		defer experiments.SetTraceFactory(nil)
	}
	if *list {
		for _, id := range videodvfs.ExperimentIDs() {
			fmt.Println(id)
		}
		return nil
	}
	ids := videodvfs.ExperimentIDs()
	if *exp != "" {
		ids = strings.Split(*exp, ",")
	}
	for i, id := range ids {
		ids[i] = strings.TrimSpace(id)
	}

	jobs := make([]campaign.Job[string], len(ids))
	for i, id := range ids {
		id := id
		format := *format
		jobs[i] = func() (string, error) {
			tab, err := videodvfs.Experiment(id)
			if err != nil {
				return "", err
			}
			return tab.Render(format)
		}
	}
	opts := campaign.Options{Workers: *parallel}
	if *progress {
		opts.Progress = os.Stderr
	}
	outs := campaign.Do(jobs, opts)
	// Print in input order; fail on the first error but keep the tables
	// that did build ahead of it.
	for i, o := range outs {
		if o.Err != nil {
			return fmt.Errorf("%s: %w", ids[i], o.Err)
		}
		fmt.Println(o.Value)
	}
	return nil
}

// traceDirFactory returns a process-wide trace factory writing one JSONL
// file per simulation run into dir. Files are named from the run's
// config axes (governor, network, rung, seed), its CPU platform when it
// has one, the first eight hex digits of its content address
// (experiments.ConfigKey) and a per-name sequence number. Runs that share
// a name up to the sequence number run the same config on the same
// platform and so write the same bytes, which makes the directory's file
// set a function of the experiments alone, whatever order runs complete
// in.
func traceDirFactory(dir string) experiments.TraceFactory {
	var mu sync.Mutex
	seq := make(map[string]int)
	return func(cfg experiments.RunConfig, rig string) (trace.Tracer, func() error) {
		net := cfg.Net
		if net == "" {
			net = experiments.NetWiFi
		}
		base := fmt.Sprintf("%s_%s_%s_seed%d", cfg.Governor, net, cfg.Rung.Name, cfg.Seed)
		if rig != "" {
			base += "_" + rig
		}
		// Strict mode only observes a run, so it does not change the key.
		cfg.Strict = false
		if key, ok := experiments.ConfigKey(cfg); ok {
			base += "_" + key[:8]
		}
		mu.Lock()
		n := seq[base]
		seq[base] = n + 1
		mu.Unlock()
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s_%03d.jsonl", base, n)))
		if err != nil {
			fmt.Fprintln(os.Stderr, "exprun: trace:", err)
			return nil, nil
		}
		sink := trace.NewJSONL(f)
		return sink, sink.Close
	}
}

package videodvfs_test

import (
	"errors"
	"fmt"
	"log"

	"videodvfs"
)

// ExampleRun shows the minimal session: the base case under the
// energy-aware governor. Output is deterministic because all randomness
// derives from the configured seed.
func ExampleRun() {
	cfg := videodvfs.DefaultSession()
	cfg.Duration = 20 * videodvfs.Second
	res, err := videodvfs.Run(cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("governor=%s completed=%v drops=%d rebuffers=%d\n",
		res.Governor, res.QoE.Completed, res.QoE.DroppedFrames, res.QoE.RebufferCount)
	fmt.Printf("cpu energy positive: %v\n", res.CPUJ > 0)
	// Output:
	// governor=energyaware completed=true drops=0 rebuffers=0
	// cpu energy positive: true
}

// ExampleRun_comparison compares the policy against a stock governor on
// identical inputs.
func ExampleRun_comparison() {
	ours := videodvfs.DefaultSession()
	ours.Duration = 20 * videodvfs.Second
	ours.Governor = videodvfs.GovEnergyAware
	stock := ours
	stock.Governor = videodvfs.GovOndemand

	a, err := videodvfs.Run(ours)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	b, err := videodvfs.Run(stock)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("saves energy: %v, same drops: %v\n",
		a.CPUJ < b.CPUJ, a.QoE.DroppedFrames == b.QoE.DroppedFrames)
	// Output:
	// saves energy: true, same drops: true
}

// ExampleRun_lte is the README's library quick start: the base case over
// the Markov-modulated LTE link.
func ExampleRun_lte() {
	cfg := videodvfs.DefaultSession()       // flagship, 720p sports, 8 Mbps
	cfg.Governor = videodvfs.GovEnergyAware // or GovOndemand, GovOracle, ...
	cfg.Net = videodvfs.NetLTE
	res, err := videodvfs.Run(cfg)
	// res.CPUJ, res.RadioJ, res.QoE.DroppedFrames, res.FreqResidency, ...
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("completed=%v radio energy positive: %v\n", res.QoE.Completed, res.RadioJ > 0)
	// Output:
	// completed=true radio energy positive: true
}

// ExampleRun_strict is the README's strict-mode block: the invariant
// checker audits the run's event stream, and a breach fails Run with a
// *Violation.
func ExampleRun_strict() {
	cfg := videodvfs.DefaultSession()
	cfg.Strict = true
	if _, err := videodvfs.Run(cfg); err != nil {
		var v *videodvfs.Violation
		if errors.As(err, &v) {
			log.Fatalf("broken %s at t=%v: %s", v.Rule, v.T, v.Detail)
		}
	}
	fmt.Println("every invariant held")
	// Output:
	// every invariant held
}

// ExampleRunAll is the README's batch block: two governors over ten
// seeds on a worker pool, outcomes in input order.
func ExampleRunAll() {
	var cfgs []videodvfs.RunConfig
	for _, gov := range []videodvfs.Governor{videodvfs.GovOndemand, videodvfs.GovEnergyAware} {
		for seed := int64(1); seed <= 10; seed++ {
			cfg := videodvfs.DefaultSession()
			cfg.Governor, cfg.Seed = gov, seed
			cfgs = append(cfgs, cfg)
		}
	}
	outs := videodvfs.RunAll(cfgs, 8) // 8 workers, input order kept
	cheaper := 0
	for i, o := range outs[10:] {
		if o.Err != nil || outs[i].Err != nil {
			fmt.Println("error:", errors.Join(o.Err, outs[i].Err))
			return
		}
		if o.Result.CPUJ < outs[i].Result.CPUJ {
			cheaper++
		}
	}
	fmt.Printf("%d runs; energy-aware cheaper on %d of 10 seeds\n", len(outs), cheaper)
	// Output:
	// 20 runs; energy-aware cheaper on 10 of 10 seeds
}

// ExampleRunCohort is the README's cohort block: a 100,000-viewer live
// event bursting into a shared cell. It compiles but does not run here.
func ExampleRunCohort() {
	cfg := videodvfs.DefaultCohort()
	cfg.Viewers = 100_000
	cfg.Base.Rung, _ = videodvfs.ResolutionByName("360p") // 0.8 Mbps
	cfg.Arrival = videodvfs.CohortArrival{
		Kind: videodvfs.ArrivalBurst, Window: 30 * videodvfs.Second,
	}
	// ~98 viewers/sector at 0.8 Mbps each; an oversubscribed cell
	// starves every session to its horizon.
	cfg.Cell = &videodvfs.CohortCell{CapacityMbps: 100, Sectors: 1024}
	res, err := videodvfs.RunCohort(cfg)
	// res.Completed, res.EnergyJ.P99, res.RebufferRatio.Mean, res.SimEnd, ...
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d of %d viewers completed\n", res.Completed, cfg.Viewers)
}

// ExampleRunConfig_Validate shows checking a session before running it:
// every rejection wraps ErrInvalidConfig, with the parse-level sentinel
// still distinguishable underneath.
func ExampleRunConfig_Validate() {
	cfg := videodvfs.DefaultSession()
	cfg.Governor = "warpdrive"
	err := cfg.Validate()
	fmt.Println("invalid config:", errors.Is(err, videodvfs.ErrInvalidConfig))
	fmt.Println("unknown governor:", errors.Is(err, videodvfs.ErrUnknownGovernor))
	// Output:
	// invalid config: true
	// unknown governor: true
}

// ExampleExperiment regenerates one of the evaluation's tables.
func ExampleExperiment() {
	tab, err := videodvfs.Experiment("t1")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("id=%s columns=%d rows>0=%v\n", tab.ID, len(tab.Header), len(tab.Rows) > 0)
	// Output:
	// id=t1 columns=6 rows>0=true
}

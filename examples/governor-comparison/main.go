// Governor comparison: run every governor (stock baselines, the
// energy-aware policy, and the offline oracle) on the same workload and
// print an energy/QoE table per resolution.
//
//	go run ./examples/governor-comparison
package main

import (
	"fmt"
	"os"

	"videodvfs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "governor-comparison:", err)
		os.Exit(1)
	}
}

func run() error {
	for _, res := range []string{"480p", "720p", "1080p"} {
		rung, err := videodvfs.ResolutionByName(res)
		if err != nil {
			return err
		}
		fmt.Printf("\n== %s sports, 60 s ==\n", res)
		fmt.Printf("%-12s %9s %9s %7s %8s %9s\n",
			"governor", "cpu (J)", "mean GHz", "drops", "drop %", "startup s")
		for _, gov := range videodvfs.Governors() {
			cfg := videodvfs.DefaultSession()
			cfg.Governor = gov
			cfg.Rung = rung
			out, err := videodvfs.Run(cfg)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", gov, res, err)
			}
			fmt.Printf("%-12s %9.1f %9.2f %7d %7.1f%% %9.2f\n",
				gov, out.CPUJ, out.MeanFreqGHz,
				out.QoE.DroppedFrames, out.QoE.DropRate()*100,
				out.QoE.StartupDelay.Seconds())
		}
	}
	return nil
}

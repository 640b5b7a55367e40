// Quickstart: run one streaming session under the energy-aware governor
// and under stock ondemand, and compare energy and QoE.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"videodvfs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// 60 seconds of 720p sports over a steady 8 Mbps link on a
	// flagship-class device.
	cfg := videodvfs.DefaultSession()
	cfg.Governor = videodvfs.GovOndemand
	baseline, err := videodvfs.Run(cfg)
	if err != nil {
		return err
	}

	cfg.Governor = videodvfs.GovEnergyAware
	ours, err := videodvfs.Run(cfg)
	if err != nil {
		return err
	}

	fmt.Println("720p sports, 60 s, flagship device, 8 Mbps link")
	fmt.Printf("%-12s %10s %10s %8s %9s\n", "governor", "cpu (J)", "mean GHz", "drops", "rebuffers")
	for _, r := range []videodvfs.RunResult{baseline, ours} {
		fmt.Printf("%-12s %10.1f %10.2f %8d %9d\n",
			r.Governor, r.CPUJ, r.MeanFreqGHz, r.QoE.DroppedFrames, r.QoE.RebufferCount)
	}
	saving := (baseline.CPUJ - ours.CPUJ) / baseline.CPUJ * 100
	fmt.Printf("\nenergy-aware saves %.1f%% CPU energy with identical QoE\n", saving)
	return nil
}

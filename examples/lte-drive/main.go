// LTE drive: stream 2 minutes of sports over a Markov-modulated LTE link
// with buffer-based ABR, comparing the stock interactive governor against
// the energy-aware policy — the closest scenario to real phone usage. The
// report includes the whole-device energy breakdown (CPU + radio +
// display) and the ABR behaviour.
//
//	go run ./examples/lte-drive
package main

import (
	"fmt"
	"os"

	"videodvfs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lte-drive:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("120 s sports over variable LTE, buffer-based ABR (BBA)")
	fmt.Printf("%-12s %8s %8s %9s %8s %9s %8s %8s\n",
		"governor", "cpu (J)", "radio(J)", "total(J)", "Mbps", "switches", "rebuf s", "drops")
	for _, gov := range []videodvfs.Governor{
		videodvfs.GovInteractive, videodvfs.GovOndemand, videodvfs.GovEnergyAware,
	} {
		cfg := videodvfs.DefaultSession()
		cfg.Governor = gov
		cfg.Net = videodvfs.NetLTE
		cfg.ABR = videodvfs.ABRBBA
		cfg.Duration = 120 * videodvfs.Second
		out, err := videodvfs.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", gov, err)
		}
		fmt.Printf("%-12s %8.1f %8.1f %9.1f %8.2f %9d %8.2f %8d\n",
			gov, out.CPUJ, out.RadioJ, out.TotalJ(),
			out.QoE.MeanRungBps/1e6, out.QoE.RungSwitches,
			out.QoE.RebufferTime.Seconds(), out.QoE.DroppedFrames)
	}
	fmt.Println("\nsavings persist under ABR on a variable link; stalls are network-bound")
	return nil
}

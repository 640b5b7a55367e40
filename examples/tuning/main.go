// Tuning: sweep the energy-aware policy's two main knobs — the safety
// margin and the decode-ahead buffer depth — to see the energy/QoE
// trade-off each controls.
//
//	go run ./examples/tuning
package main

import (
	"fmt"
	"os"

	"videodvfs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tuning:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("safety margin sweep (720p sports, 60 s, 8-frame buffer)")
	fmt.Printf("%8s %9s %7s\n", "margin", "cpu (J)", "drops")
	for _, margin := range []float64{0, 0.05, 0.15, 0.30, 0.50} {
		pol := videodvfs.DefaultPolicy()
		pol.Margin = margin
		cfg := videodvfs.DefaultSession()
		cfg.Policy = pol
		out, err := videodvfs.Run(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%8.2f %9.1f %7d\n", margin, out.CPUJ, out.QoE.DroppedFrames)
	}

	fmt.Println("\ndecode-ahead buffer sweep (margin 0.15)")
	fmt.Printf("%8s %9s %7s\n", "frames", "cpu (J)", "drops")
	for _, depth := range []int{1, 2, 4, 8, 16} {
		cfg := videodvfs.DefaultSession()
		cfg.DecodedQueueCap = depth
		out, err := videodvfs.Run(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%8d %9.1f %7d\n", depth, out.CPUJ, out.QoE.DroppedFrames)
	}
	fmt.Println("\nthe knee sits near margin ≈ 0.15 and depth ≈ 8: drops vanish for a few joules")
	return nil
}

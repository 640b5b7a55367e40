package core

import (
	"testing"

	"videodvfs/internal/cpu"
	"videodvfs/internal/sim"
	"videodvfs/internal/video"
)

func clusterRig(t *testing.T) (*sim.Engine, *cpu.Core, *cpu.Core) {
	t.Helper()
	eng := sim.NewEngine()
	big, err := cpu.NewCore(eng, cpu.DeviceFlagship())
	if err != nil {
		t.Fatal(err)
	}
	little, err := cpu.NewCore(eng, cpu.DeviceEfficient())
	if err != nil {
		t.Fatal(err)
	}
	return eng, big, little
}

func warmCluster(t *testing.T, big, little *cpu.Core, cycles float64) *ClusterGovernor {
	t.Helper()
	g, err := NewClusterGovernor(big, little, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g.StreamInfo(30, 0)
	for i := 0; i < 60; i++ {
		g.DecodeEnd(0, pFrame(i, cycles), 0, cycles)
	}
	g.PlaybackState(0, true)
	return g
}

func TestClusterRoutesLightFramesToLittle(t *testing.T) {
	_, big, little := clusterRig(t)
	// 10 M cycles with a 1-period budget needs 345 MHz — well inside the
	// little cluster (fmax 1.4 GHz).
	g := warmCluster(t, big, little, 10e6)
	g.DecodeStart(0, pFrame(100, 10e6), sim.Second, 4, 8)
	if g.FramesOnLittle() != 1 || g.FramesOnBig() != 0 {
		t.Fatalf("placement little=%d big=%d, want little", g.FramesOnLittle(), g.FramesOnBig())
	}
	// The decode route must point at little; big parks at its floor.
	if big.OPP() != 0 {
		t.Fatalf("big OPP = %d, want parked", big.OPP())
	}
	if little.FreqHz() < 10e6*1.15*30 {
		t.Fatalf("little frequency %.0f below the need", little.FreqHz())
	}
}

func TestClusterRoutesHeavyFramesToBig(t *testing.T) {
	_, big, little := clusterRig(t)
	// 60 M cycles × 30 fps × margin needs ≈2.1 GHz — beyond little.
	g := warmCluster(t, big, little, 60e6)
	g.DecodeStart(0, pFrame(100, 60e6), sim.Second, 4, 8)
	if g.FramesOnBig() != 1 {
		t.Fatalf("placement little=%d big=%d, want big", g.FramesOnLittle(), g.FramesOnBig())
	}
	if big.FreqHz() < 2e9 {
		t.Fatalf("big frequency %.2g too low for the demand", big.FreqHz())
	}
	_ = little
}

func TestClusterSubmitRouting(t *testing.T) {
	eng, big, little := clusterRig(t)
	g := warmCluster(t, big, little, 10e6)
	// Decode goes to the current route (little after a light frame).
	g.DecodeStart(0, pFrame(0, 10e6), sim.Second, 4, 8)
	if err := g.Submit(cpu.Job{Cycles: 1e6, Priority: cpu.PrioDecode}); err != nil {
		t.Fatal(err)
	}
	// Background always goes little.
	if err := g.Submit(cpu.Job{Cycles: 1e6, Priority: cpu.PrioBackground}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if dec, bg := little.Cycles(cpu.PrioDecode), little.Cycles(cpu.PrioBackground); dec != 1e6 || bg != 1e6 {
		t.Fatalf("little ran %v decode and %v background cycles, want decode+bg routed there", dec, bg)
	}
	if big.Cycles(cpu.PrioDecode) != 0 || big.Cycles(cpu.PrioBackground) != 0 {
		t.Fatal("big should have no decode or background work")
	}
}

func TestClusterStartupBoostUsesBig(t *testing.T) {
	_, big, little := clusterRig(t)
	g := warmCluster(t, big, little, 10e6)
	g.PlaybackState(0, false)
	g.DecodeStart(0, pFrame(0, 10e6), sim.Second, 4, 8)
	if g.FramesOnBig() != 1 {
		t.Fatal("startup decode should run on big at fmax")
	}
	if big.OPP() != big.Model().MaxIdx() {
		t.Fatalf("big OPP = %d, want max during startup", big.OPP())
	}
}

func TestClusterIdleParksBothClusters(t *testing.T) {
	_, big, little := clusterRig(t)
	g := warmCluster(t, big, little, 10e6)
	big.SetOPP(5)
	little.SetOPP(5)
	g.DecoderIdle(0)
	if big.OPP() != 0 || little.OPP() != 0 {
		t.Fatalf("idle OPPs big=%d little=%d, want both parked", big.OPP(), little.OPP())
	}
}

func TestClusterValidation(t *testing.T) {
	_, big, little := clusterRig(t)
	if _, err := NewClusterGovernor(nil, little, DefaultConfig()); err == nil {
		t.Error("want error for nil big")
	}
	if _, err := NewClusterGovernor(little, big, DefaultConfig()); err == nil {
		t.Error("want error when little out-clocks big")
	}
	bad := DefaultConfig()
	bad.Alpha = 0
	if _, err := NewClusterGovernor(big, little, bad); err == nil {
		t.Error("want error for invalid policy")
	}
}

func TestClusterColdPredictorBoostsBig(t *testing.T) {
	_, big, little := clusterRig(t)
	g, err := NewClusterGovernor(big, little, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g.PlaybackState(0, true)
	g.DecodeStart(0, video.Frame{Index: 0, Type: video.FrameP, Cycles: 1e6}, sim.Second, 4, 8)
	if g.FramesOnBig() != 1 || big.OPP() != big.Model().MaxIdx() {
		t.Fatal("cold predictor should boost on big")
	}
}

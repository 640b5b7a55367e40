package experiments

import (
	"errors"
	"reflect"
	"testing"

	"videodvfs/internal/cpu"
	"videodvfs/internal/invariant"
	"videodvfs/internal/sim"
)

// fuzzResetVariants is the config palette the reset fuzzer draws from:
// short runs spanning the governors, networks, idle model, thermal model,
// and adaptation paths, all with the invariant checker armed.
func fuzzResetVariants() []RunConfig {
	thermal := cpu.DefaultThermalConfig()
	base := func() RunConfig {
		cfg := DefaultRunConfig()
		cfg.Duration = 3 * sim.Second
		cfg.Strict = true
		return cfg
	}
	v0 := base()
	v1 := base()
	v1.Governor = GovOndemand
	v1.Net = NetLTE
	v1.Device = cpu.DeviceMidrange()
	v2 := base()
	v2.CStates = true
	v2.Codec = "hevc"
	v3 := base()
	v3.Governor = GovOracle
	v3.ABR = ABRBBA
	v3.Net = NetUMTS
	v4 := base()
	v4.Thermal = &thermal
	v4.LowLatency = true
	v4.Device = cpu.DeviceEfficient()
	v5 := base()
	v5.Governor = GovSchedutil
	v5.Net = NetWiFi
	v5.Seed = 5
	return []RunConfig{v0, v1, v2, v3, v4, v5}
}

// FuzzSessionReset interleaves arena recycling with mid-run cancellation:
// one Session is driven through a fuzzed script of full runs, horizon-cut
// runs (the event loop dies mid-stream, leaving live slab handles behind),
// and abandoned Resets (armed but never finished). The properties: no
// panic, no invariant violation, and every FULL run on the battered arena
// still reproduces a fresh simulator's result exactly — i.e. stale event
// handles from a cancelled run are dead after Reset (generation bump), not
// use-after-reset hazards.
func FuzzSessionReset(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{0x10, 0x21, 0x32, 0x43, 0x54, 0x05})       // cut every variant, then full run
	f.Add([]byte{0x20, 0x20, 0x00})                         // abandon, abandon, run
	f.Add([]byte{0x13, 0x03, 0x13, 0x03})                   // alternate cut/full on one config
	f.Add([]byte{0x35, 0x24, 0x13, 0x02, 0x11, 0x30, 0x00}) // all modes mixed
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 12 {
			script = script[:12] // bound per-case work
		}
		variants := fuzzResetVariants()
		arena := NewSession()
		var got RunResult
		for step, b := range script {
			cfg := variants[int(b&0x0f)%len(variants)]
			switch mode := (b >> 4) & 0x03; mode {
			case 1:
				// Mid-run cancellation: a horizon far short of the content
				// cuts the event loop with frames in flight.
				cfg.Horizon = cfg.Duration / 8
				err := arena.RunInto(cfg, &got)
				if err == nil {
					t.Fatalf("step %d: horizon-cut run succeeded", step)
				}
				var v *invariant.Violation
				if errors.As(err, &v) {
					t.Fatalf("step %d: invariant violated on cut run: %v", step, v)
				}
				if !errors.Is(err, ErrHorizonExceeded) {
					t.Fatalf("step %d: cut run failed with %v, want ErrHorizonExceeded", step, err)
				}
			case 2:
				// Abandoned arming: Reset wires the arena, then the caller
				// walks away; the next Reset must tear it down cleanly.
				if err := arena.Reset(cfg); err != nil {
					t.Fatalf("step %d: abandoned Reset: %v", step, err)
				}
			default:
				// Full run on the battered arena, differentially checked
				// against a fresh simulator.
				if err := arena.RunInto(cfg, &got); err != nil {
					t.Fatalf("step %d: recycled run: %v (config %+v)", step, err, cfg)
				}
				var want RunResult
				if err := NewSession().RunInto(cfg, &want); err != nil {
					t.Fatalf("step %d: fresh reference run: %v", step, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("step %d: recycled result diverges from fresh\nfresh:    %+v\nrecycled: %+v",
						step, want, got)
				}
			}
		}
	})
}

package experiments

import (
	"testing"

	"videodvfs/internal/cpu"
	"videodvfs/internal/video"
)

// BenchmarkConfigKey prices the content address dvfsctl computes to route
// every sweep point and dvfsd computes again to look it up: the default
// config (flagship, 14 OPPs) and a point of a midrange device sweep.
func BenchmarkConfigKey(b *testing.B) {
	midrange := Sweep{
		Base:      DefaultRunConfig(),
		Governors: []GovernorID{GovOndemand},
		Nets:      []NetKind{NetLTE},
		Devices:   []cpu.Model{cpu.DeviceMidrange()},
		Rungs:     []video.Resolution{video.R480p},
		Seeds:     []int64{7},
	}.Expand()[0]
	for _, bc := range []struct {
		name string
		cfg  RunConfig
	}{
		{"default", DefaultRunConfig()},
		{"midrange-sweep-point", midrange},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := ConfigKey(bc.cfg); !ok {
					b.Fatal("config reported uncacheable")
				}
			}
		})
	}
}

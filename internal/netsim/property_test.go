package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"videodvfs/internal/sim"
)

// Property: under any random fetch pattern over any random step trace with
// positive rates, every fetch completes, the bits received equal the bits
// requested, and the radio's state residency covers the whole run.
func TestDownloaderConservationProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := sim.Stream(seed, "prop/dl")
		n := int(nRaw)%8 + 1
		eng := sim.NewEngine()
		radio, err := NewRadio(eng, DefaultUMTS())
		if err != nil {
			return false
		}
		// Random positive-rate step trace.
		var steps []Step
		at := sim.Time(0)
		for i := 0; i < 5; i++ {
			steps = append(steps, Step{Start: at, Bps: rng.Uniform(0.5e6, 20e6)})
			at += sim.Time(rng.Uniform(1, 10))
		}
		bw := Steps{Trace: steps}
		if bw.Validate() != nil {
			return false
		}
		dl, err := NewDownloader(eng, bw, radio, nil)
		if err != nil {
			return false
		}
		var want float64
		done := 0
		for i := 0; i < n; i++ {
			bits := rng.Uniform(1e5, 2e7)
			want += bits
			at := sim.Time(rng.Uniform(0, 20))
			eng.At(at, func() {
				_ = dl.Fetch(bits, func(sim.Time) { done++ })
			})
		}
		eng.Run()
		if done != n || dl.Err() != nil {
			return false
		}
		if math.Abs(dl.BitsReceived()-want) > 1e-6*want {
			return false
		}
		var resid sim.Time
		for _, d := range radio.Residency() {
			resid += d
		}
		return math.Abs(float64(resid-eng.Now())) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the radio's reported power always matches its current state's
// configured level, under random activity.
func TestRadioPowerMatchesStateProperty(t *testing.T) {
	cfg := DefaultUMTS()
	f := func(seed int64) bool {
		rng := sim.Stream(seed, "prop/radio")
		eng := sim.NewEngine()
		radio, err := NewRadio(eng, cfg)
		if err != nil {
			return false
		}
		ok := true
		check := func() {
			want := map[RRCState]float64{
				StateIdle: cfg.IdleW,
				StateFACH: cfg.FACHW,
				StateDCH:  cfg.DCHW,
			}[radio.State()]
			got := radio.Power()
			if got != want && got != want+cfg.TxExtraW {
				ok = false
			}
		}
		for i := 0; i < 20; i++ {
			at := sim.Time(rng.Uniform(0, 60))
			switch rng.Intn(3) {
			case 0:
				eng.At(at, func() { radio.BeginActivity(func() { check() }) })
			case 1:
				eng.At(at, func() { radio.EndActivity(); check() })
			default:
				eng.At(at, func() { check() })
			}
		}
		eng.Run()
		check()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the radio always returns to IDLE after activity ends and the
// tails expire, regardless of the activity pattern.
func TestRadioEventuallyIdles(t *testing.T) {
	f := func(seed int64) bool {
		rng := sim.Stream(seed, "prop/idle")
		eng := sim.NewEngine()
		radio, err := NewRadio(eng, DefaultUMTS())
		if err != nil {
			return false
		}
		for i := 0; i < 10; i++ {
			at := sim.Time(rng.Uniform(0, 30))
			eng.At(at, func() {
				radio.BeginActivity(func() { radio.EndActivity() })
			})
		}
		eng.Run()
		return radio.State() == StateIdle
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

package netsim

import (
	"math"
	"testing"

	"videodvfs/internal/cpu"
	"videodvfs/internal/sim"
)

func newRadio(t *testing.T, cfg RRCConfig) (*sim.Engine, *Radio) {
	t.Helper()
	eng := sim.NewEngine()
	r, err := NewRadio(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, r
}

func TestRadioPromotionFromIdle(t *testing.T) {
	eng, r := newRadio(t, DefaultUMTS())
	var readyAt sim.Time
	r.BeginActivity(func() { readyAt = eng.Now() })
	eng.Run()
	if readyAt != 2*sim.Second {
		t.Fatalf("DCH ready at %v, want 2s (IDLE promotion)", readyAt)
	}
	if r.State() != StateDCH {
		t.Fatalf("state = %v, want DCH", r.State())
	}
	if r.Promotions() != 1 {
		t.Fatalf("promotions = %d", r.Promotions())
	}
}

func TestRadioTailDemotions(t *testing.T) {
	cfg := DefaultUMTS()
	eng, r := newRadio(t, cfg)
	var toFACH, toIdle sim.Time
	r.OnState(func(now sim.Time, s RRCState) {
		switch s {
		case StateFACH:
			toFACH = now
		case StateIdle:
			toIdle = now
		case StateDCH:
		}
	})
	r.BeginActivity(func() { r.EndActivity() })
	eng.Run()
	// Promotion 2 s, then T1 = 4 s → FACH at 6 s, T2 = 15 s → IDLE at 21 s.
	if toFACH != 6*sim.Second {
		t.Fatalf("FACH at %v, want 6s", toFACH)
	}
	if toIdle != 21*sim.Second {
		t.Fatalf("IDLE at %v, want 21s", toIdle)
	}
}

func TestRadioFastDormancySkipsTails(t *testing.T) {
	cfg := DefaultUMTS()
	cfg.FastDormancy = true
	eng, r := newRadio(t, cfg)
	var idleAt sim.Time
	r.OnState(func(now sim.Time, s RRCState) {
		if s == StateIdle {
			idleAt = now
		}
	})
	r.BeginActivity(func() { r.EndActivity() })
	eng.Run()
	if idleAt != 2*sim.Second {
		t.Fatalf("fast dormancy released at %v, want 2s", idleAt)
	}
}

func TestRadioFACHPromotionFaster(t *testing.T) {
	cfg := DefaultUMTS()
	eng, r := newRadio(t, cfg)
	r.BeginActivity(func() { r.EndActivity() })
	// At 7 s the radio is in FACH (demoted at 6 s); promotion takes 0.7 s.
	var readyAt sim.Time
	eng.Schedule(7*sim.Second, func() {
		if r.State() != StateFACH {
			t.Errorf("state at 7s = %v, want FACH", r.State())
		}
		r.BeginActivity(func() { readyAt = eng.Now() })
	})
	eng.RunUntil(10 * sim.Second)
	want := 7*sim.Second + 700*sim.Millisecond
	if math.Abs(float64(readyAt-want)) > 1e-9 {
		t.Fatalf("FACH→DCH ready at %v, want %v", readyAt, want)
	}
}

func TestRadioActivityResetsTail(t *testing.T) {
	cfg := DefaultUMTS()
	eng, r := newRadio(t, cfg)
	r.BeginActivity(func() { r.EndActivity() }) // DCH at 2s, T1 would fire at 6s
	eng.Schedule(5*sim.Second, func() {
		r.BeginActivity(func() { r.EndActivity() }) // still DCH: immediate, re-arms T1
	})
	var toFACH sim.Time
	r.OnState(func(now sim.Time, s RRCState) {
		if s == StateFACH {
			toFACH = now
		}
	})
	eng.RunUntil(12 * sim.Second)
	if toFACH != 9*sim.Second {
		t.Fatalf("FACH at %v, want 9s (tail restarted at 5s)", toFACH)
	}
}

func TestRadioWaitersCoalesceDuringPromotion(t *testing.T) {
	eng, r := newRadio(t, DefaultUMTS())
	calls := 0
	r.BeginActivity(func() { calls++ })
	r.BeginActivity(func() { calls++ })
	eng.Run()
	if calls != 2 {
		t.Fatalf("calls = %d, want both waiters invoked", calls)
	}
	if r.Promotions() != 1 {
		t.Fatalf("promotions = %d, want 1 (coalesced)", r.Promotions())
	}
}

func TestRadioPowerLevels(t *testing.T) {
	cfg := DefaultUMTS()
	eng, r := newRadio(t, cfg)
	if r.Power() != cfg.IdleW {
		t.Fatalf("idle power = %v", r.Power())
	}
	r.BeginActivity(func() {
		if r.Power() != cfg.DCHW {
			t.Errorf("DCH power = %v, want %v", r.Power(), cfg.DCHW)
		}
		r.SetTransferring(true)
		if r.Power() != cfg.DCHW+cfg.TxExtraW {
			t.Errorf("DCH+tx power = %v", r.Power())
		}
		r.SetTransferring(false)
		r.EndActivity()
	})
	var fachPower float64
	r.OnState(func(_ sim.Time, s RRCState) {
		if s == StateFACH {
			fachPower = r.Power()
		}
	})
	eng.Run()
	if fachPower != cfg.FACHW {
		t.Fatalf("FACH power = %v, want %v", fachPower, cfg.FACHW)
	}
}

func TestRadioResidencySums(t *testing.T) {
	eng, r := newRadio(t, DefaultUMTS())
	r.BeginActivity(func() { r.EndActivity() })
	eng.Schedule(30*sim.Second, func() { eng.Stop() })
	eng.Run()
	res := r.Residency()
	var total sim.Time
	for _, d := range res {
		total += d
	}
	if math.Abs(float64(total-30*sim.Second)) > 1e-9 {
		t.Fatalf("residency sums to %v, want 30s", total)
	}
	// DCH: 2–6 s = 4 s; FACH: 6–21 s = 15 s; IDLE: 0–2 + 21–30 = 11 s.
	if math.Abs(float64(res[StateDCH]-4*sim.Second)) > 1e-9 {
		t.Fatalf("DCH residency = %v, want 4s", res[StateDCH])
	}
	if math.Abs(float64(res[StateFACH]-15*sim.Second)) > 1e-9 {
		t.Fatalf("FACH residency = %v, want 15s", res[StateFACH])
	}
}

func TestRRCConfigValidation(t *testing.T) {
	bad := []func(*RRCConfig){
		func(c *RRCConfig) { c.FACHW = c.IdleW },
		func(c *RRCConfig) { c.DCHW = c.FACHW },
		func(c *RRCConfig) { c.T1 = 0 },
		func(c *RRCConfig) { c.T2 = 0 },
		func(c *RRCConfig) { c.PromoIdle = -1 },
		func(c *RRCConfig) { c.TxExtraW = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultUMTS()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
	if err := DefaultLTE().Validate(); err != nil {
		t.Errorf("LTE default invalid: %v", err)
	}
}

func TestRRCStateString(t *testing.T) {
	if StateIdle.String() != "IDLE" || StateFACH.String() != "FACH" || StateDCH.String() != "DCH" {
		t.Fatal("state names wrong")
	}
	if RRCState(0).String() != "?" {
		t.Fatal("zero state should stringify as ?")
	}
}

func newDownloadRig(t *testing.T, bw Bandwidth) (*sim.Engine, *Radio, *cpu.Core, *Downloader) {
	t.Helper()
	eng := sim.NewEngine()
	radio, err := NewRadio(eng, DefaultUMTS())
	if err != nil {
		t.Fatal(err)
	}
	core, err := cpu.NewCore(eng, cpu.DeviceFlagship())
	if err != nil {
		t.Fatal(err)
	}
	dl, err := NewDownloader(eng, bw, radio, core)
	if err != nil {
		t.Fatal(err)
	}
	return eng, radio, core, dl
}

func TestDownloaderConstantRateTiming(t *testing.T) {
	eng, _, _, dl := newDownloadRig(t, Constant{Bps: 1e6})
	var doneAt sim.Time
	if err := dl.Fetch(2e6, func(now sim.Time) { doneAt = now }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// Promotion 2 s + RTT 0.07 s + 2e6/1e6 = 2 s transfer → 4.07 s.
	want := 2*sim.Second + rtt + 2*sim.Second
	if math.Abs(float64(doneAt-want)) > 1e-6 {
		t.Fatalf("done at %v, want %v", doneAt, want)
	}
	if dl.BitsReceived() != 2e6 || dl.Fetches() != 1 {
		t.Fatalf("bits=%v fetches=%d", dl.BitsReceived(), dl.Fetches())
	}
}

func TestDownloaderChargesNetworkCPU(t *testing.T) {
	eng, _, core, dl := newDownloadRig(t, Constant{Bps: 10e6})
	if err := dl.Fetch(5e6, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	got := core.Cycles(cpu.PrioNetwork)
	want := 5e6 * cyclesPerBit
	if math.Abs(got-want) > 1e-3*want {
		t.Fatalf("net cycles = %v, want %v", got, want)
	}
	if dl.Err() != nil {
		t.Fatal(dl.Err())
	}
}

func TestDownloaderQueuesSequentialFetches(t *testing.T) {
	eng, radio, _, dl := newDownloadRig(t, Constant{Bps: 1e6})
	var done []sim.Time
	for i := 0; i < 2; i++ {
		if err := dl.Fetch(1e6, func(now sim.Time) { done = append(done, now) }); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if len(done) != 2 {
		t.Fatalf("completed %d fetches", len(done))
	}
	if done[1] <= done[0] {
		t.Fatal("fetches not serialized")
	}
	// Only one promotion: the radio stayed in DCH across the queue.
	if radio.Promotions() != 1 {
		t.Fatalf("promotions = %d, want 1", radio.Promotions())
	}
}

func TestDownloaderOutageStallsAndResumes(t *testing.T) {
	// 1 Mbps for 1 s, outage for 2 s, then 1 Mbps again.
	bw := Steps{Trace: []Step{
		{Start: 0, Bps: 1e6},
		{Start: 3070 * sim.Millisecond, Bps: 0},
		{Start: 5070 * sim.Millisecond, Bps: 1e6},
	}}
	if err := bw.Validate(); err != nil {
		t.Fatal(err)
	}
	eng, _, _, dl := newDownloadRig(t, bw)
	var doneAt sim.Time
	// Transfer starts at 2.07 s; 1 s of data flows before the outage at
	// 3.07 s; the remaining 1e6 bits resume at 5.07 s and finish at 6.07 s.
	if err := dl.Fetch(2e6, func(now sim.Time) { doneAt = now }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	want := 6070 * sim.Millisecond
	if math.Abs(float64(doneAt-want)) > 1e-3 {
		t.Fatalf("done at %v, want ≈%v", doneAt, want)
	}
}

func TestDownloaderActivityCallback(t *testing.T) {
	eng, _, _, dl := newDownloadRig(t, Constant{Bps: 1e6})
	var transitions []bool
	dl.OnActive(func(_ sim.Time, active bool) { transitions = append(transitions, active) })
	if err := dl.Fetch(1e6, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(transitions) != 2 || !transitions[0] || transitions[1] {
		t.Fatalf("transitions = %v, want [true false]", transitions)
	}
}

func TestDownloaderRejectsBadInputs(t *testing.T) {
	eng, radio, core, dl := newDownloadRig(t, Constant{Bps: 1e6})
	if err := dl.Fetch(0, nil); err == nil {
		t.Fatal("want error for zero-bit fetch")
	}
	if _, err := NewDownloader(eng, nil, radio, core); err == nil {
		t.Fatal("want error for nil bandwidth")
	}
}

// TestRadioResidencyMatchesClockBothDormancyModes pins the fast-dormancy
// DCH→IDLE release to the same accounting contract as the timer-driven
// demotion path: both go through setState, so total residency equals the
// engine clock exactly and every transition emits its state event before
// its power event, in the same order.
func TestRadioResidencyMatchesClockBothDormancyModes(t *testing.T) {
	for _, fd := range []bool{false, true} {
		cfg := DefaultUMTS()
		cfg.FastDormancy = fd
		eng, r := newRadio(t, cfg)

		type evt struct {
			kind  string // "state" or "power"
			state RRCState
		}
		var log []evt
		r.OnState(func(_ sim.Time, s RRCState) { log = append(log, evt{"state", s}) })
		r.OnPower(func(sim.Time, float64) { log = append(log, evt{"power", r.State()}) })

		// Two activity bursts separated enough that the radio settles in
		// between (with tails or with the SCRI release).
		r.BeginActivity(func() { r.EndActivity() })
		eng.Schedule(40*sim.Second, func() {
			r.BeginActivity(func() { r.EndActivity() })
		})
		eng.Schedule(80*sim.Second, func() { eng.Stop() })
		eng.Run()

		res := r.Residency()
		var total sim.Time
		for _, d := range res {
			total += d
		}
		if math.Abs(float64(total-80*sim.Second)) > 1e-9 {
			t.Fatalf("fastDormancy=%v: residency sums to %v, want 80s", fd, total)
		}
		if fd {
			// SCRI release: DCH dwell is exactly the two promotion-to-release
			// windows (activity ends immediately after ready), with no
			// FACH time at all.
			if res[StateFACH] != 0 {
				t.Fatalf("fast dormancy spent %v in FACH, want 0", res[StateFACH])
			}
		} else if res[StateFACH] == 0 {
			t.Fatal("timer path never dwelt in FACH")
		}

		// Shared setState contract: every state transition emits the
		// state event first, then the power event for that same state.
		for i, e := range log {
			if e.kind != "state" {
				continue
			}
			if i+1 >= len(log) || log[i+1].kind != "power" || log[i+1].state != e.state {
				t.Fatalf("fastDormancy=%v: transition to %v not followed by its power event (log %v)", fd, e.state, log)
			}
		}
		if len(log) == 0 {
			t.Fatalf("fastDormancy=%v: no transitions observed", fd)
		}
	}
}

// TestRadioResetCancelsWhatItScheduled rewinds a radio on an engine that
// keeps running, as a shared cohort engine would: neither a promotion in
// flight nor the tail timers of a finished burst may fire into the
// rewound radio.
func TestRadioResetCancelsWhatItScheduled(t *testing.T) {
	cfg := DefaultUMTS()
	eng, r := newRadio(t, cfg)
	var changes []RRCState
	reset := func() {
		t.Helper()
		if err := r.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		changes = changes[:0]
		r.OnState(func(_ sim.Time, s RRCState) { changes = append(changes, s) })
	}

	// A promotion in flight: the reset radio stays in IDLE.
	ready := false
	r.BeginActivity(func() { ready = true })
	reset()
	eng.RunUntil(eng.Now() + 2*(cfg.PromoIdle+cfg.T1+cfg.T2))
	if ready || r.State() != StateIdle || r.Promotions() != 0 || len(changes) != 0 {
		t.Fatalf("after a reset mid-promotion: ready %v, state %v, %d promotions, transitions %v",
			ready, r.State(), r.Promotions(), changes)
	}

	// The tails of a finished burst: a new burst after the reset stays in
	// DCH past where the old T1 and T2 were due.
	r.BeginActivity(func() {})
	eng.RunUntil(eng.Now() + cfg.PromoIdle)
	r.EndActivity()
	reset()
	r.BeginActivity(func() { r.SetTransferring(true) })
	eng.RunUntil(eng.Now() + 2*(cfg.PromoIdle+cfg.T1+cfg.T2))
	if r.State() != StateDCH || r.Promotions() != 1 || len(changes) != 1 || changes[0] != StateDCH {
		t.Fatalf("after a reset with tails armed: state %v, %d promotions, transitions %v",
			r.State(), r.Promotions(), changes)
	}
}

// TestDownloaderResetCancelsWhatItScheduled rewinds a downloader mid-fetch,
// with its radio and core, on an engine that keeps running, as a shared
// cohort engine would: the fetch's pending chunk event must not fire into
// the rewound downloader and finish a fetch it never issued.
func TestDownloaderResetCancelsWhatItScheduled(t *testing.T) {
	eng, radio, core, dl := newDownloadRig(t, Constant{Bps: 1e6})
	if err := dl.Fetch(5e6, nil); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(3 * sim.Second) // promoted at 2 s, streaming since 2.07 s
	if !dl.Busy() {
		t.Fatal("fetch not in flight at 3 s")
	}
	if err := radio.Reset(DefaultUMTS()); err != nil {
		t.Fatal(err)
	}
	if err := core.Reset(cpu.DeviceFlagship()); err != nil {
		t.Fatal(err)
	}
	if err := dl.Reset(Constant{Bps: 1e6}); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(eng.Now() + 10*sim.Second)
	if dl.Fetches() != 0 || dl.BitsReceived() != 0 || dl.Busy() {
		t.Fatalf("rewound downloader: %d fetches, %v bits, busy %v; want none", dl.Fetches(), dl.BitsReceived(), dl.Busy())
	}
}

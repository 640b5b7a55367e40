package netsim

import (
	"fmt"

	"videodvfs/internal/cpu"
	"videodvfs/internal/sim"
)

// The downloader's fixed costs: typical values of a 70 ms request RTT,
// ≈1 cycle/bit of network-stack processing, and 100 ms CPU-job chunking.
const (
	// rtt is the request round-trip added before each fetch's data flows.
	rtt = 70 * sim.Millisecond
	// cyclesPerBit is the CPU cost of network-stack processing,
	// submitted to the core as the data arrives.
	cyclesPerBit = 1.0
	// netChunk is the granularity at which network CPU work is submitted
	// (span of download time per CPU job).
	netChunk = 100 * sim.Millisecond
)

// Downloader fetches byte blobs over a bandwidth trace while driving the
// radio state machine and charging network-stack CPU cycles to the core.
// Fetches are serialized (players fetch one segment at a time).
type Downloader struct {
	eng   *sim.Engine
	bw    Bandwidth
	radio *Radio
	core  *cpu.Core

	busy    bool
	queue   []fetchReq
	qhead   int
	bitsRx  float64
	fetches int
	subErr  error

	// Current fetch state. Fetches are serialized, so fields plus the
	// pre-bound callbacks below replace per-fetch closures on the hot path.
	curBits  float64 // payload bits still to stream
	curDone  func(now sim.Time)
	spanBits float64 // bits carried by the chunk in flight
	// pending is the fetch's one scheduled event — the request RTT, a
	// chunk, the finish or an outage resume — which Reset cancels.
	pending sim.Event

	readyFn  func() // radio reached DCH
	rttFn    func() // request RTT elapsed
	resumeFn func() // bandwidth outage ended
	chunkFn  func() // mid-stream chunk completed
	finishFn func() // final chunk completed

	onActive func(now sim.Time, active bool)
}

type fetchReq struct {
	bits   float64
	onDone func(now sim.Time)
}

// NewDownloader wires a downloader to its substrates. core may be nil to
// skip CPU accounting (used by radio-only experiments).
func NewDownloader(eng *sim.Engine, bw Bandwidth, radio *Radio, core *cpu.Core) (*Downloader, error) {
	if bw == nil || radio == nil {
		return nil, fmt.Errorf("downloader: bandwidth and radio are required")
	}
	d := &Downloader{eng: eng, bw: bw, radio: radio, core: core}
	d.readyFn = d.ready
	d.rttFn = d.startStream
	d.resumeFn = d.startStream
	d.chunkFn = d.chunkDone
	d.finishFn = d.finish
	return d, nil
}

// Reset rewinds the downloader to the state NewDownloader would construct
// for bw, keeping its allocations: the fetch queue backing array and the
// pre-bound streaming callbacks survive. The activity
// listener is dropped (the next run re-registers its own). An in-flight
// fetch's pending event is canceled, so the downloader can be rewound on
// an engine that keeps running; its radio and core are reset alongside.
func (d *Downloader) Reset(bw Bandwidth) error {
	if bw == nil {
		return fmt.Errorf("downloader: bandwidth is required")
	}
	d.eng.Cancel(d.pending)
	d.pending = sim.Event{}
	d.bw = bw
	d.busy = false
	for i := range d.queue {
		d.queue[i] = fetchReq{}
	}
	d.queue = d.queue[:0]
	d.qhead = 0
	d.bitsRx = 0
	d.fetches = 0
	d.subErr = nil
	d.curBits = 0
	d.curDone = nil
	d.spanBits = 0
	d.onActive = nil
	return nil
}

// OnActive registers a listener for download activity transitions (used by
// the network-coordinating governor).
func (d *Downloader) OnActive(fn func(now sim.Time, active bool)) { d.onActive = fn }

// BitsReceived returns the total payload downloaded so far.
func (d *Downloader) BitsReceived() float64 { return d.bitsRx }

// Fetches returns the number of completed fetches.
func (d *Downloader) Fetches() int { return d.fetches }

// Err returns the first internal error (CPU submission), if any.
func (d *Downloader) Err() error { return d.subErr }

// Busy reports whether a fetch is in flight.
func (d *Downloader) Busy() bool { return d.busy }

// Fetch downloads bits of payload and calls onDone at completion. Calls
// while busy are queued in order.
func (d *Downloader) Fetch(bits float64, onDone func(now sim.Time)) error {
	if bits <= 0 {
		return fmt.Errorf("downloader: fetch of %v bits", bits)
	}
	d.queue = append(d.queue, fetchReq{bits: bits, onDone: onDone})
	if !d.busy {
		d.next()
	}
	return nil
}

func (d *Downloader) next() {
	if d.qhead == len(d.queue) {
		d.queue = d.queue[:0]
		d.qhead = 0
		if d.busy {
			d.busy = false
			if d.onActive != nil {
				d.onActive(d.eng.Now(), false)
			}
			d.radio.EndActivity()
		}
		return
	}
	req := d.queue[d.qhead]
	d.queue[d.qhead] = fetchReq{}
	d.qhead++
	d.curBits = req.bits
	d.curDone = req.onDone
	if !d.busy {
		d.busy = true
		if d.onActive != nil {
			d.onActive(d.eng.Now(), true)
		}
	}
	d.radio.BeginActivity(d.readyFn)
}

// ready fires once the radio reaches DCH: the request RTT elapses, then the
// payload streams.
func (d *Downloader) ready() {
	d.pending = d.eng.Schedule(rtt, d.rttFn)
}

// startStream marks data flowing and (re)enters the streaming loop. It also
// serves as the outage-resume callback.
func (d *Downloader) startStream() {
	d.radio.SetTransferring(true)
	d.stream()
}

// stream advances the download through the piecewise-constant bandwidth
// trace, charging network CPU work per chunk.
func (d *Downloader) stream() {
	now := d.eng.Now()
	rate, until := d.bw.Rate(now)
	if rate <= 0 {
		// Outage: idle the radio Tx flag until the rate returns.
		d.radio.SetTransferring(false)
		d.pending = d.eng.At(until, d.resumeFn)
		return
	}
	span := until - now
	if span > netChunk {
		span = netChunk
	}
	bitsInSpan := rate * span.Seconds()
	if bitsInSpan >= d.curBits {
		// Finishes within this span.
		dt := sim.Time(d.curBits / rate)
		d.pending = d.eng.Schedule(dt, d.finishFn)
		return
	}
	d.spanBits = bitsInSpan
	d.pending = d.eng.Schedule(span, d.chunkFn)
}

// chunkDone accounts a completed mid-stream chunk and keeps streaming.
func (d *Downloader) chunkDone() {
	d.bitsRx += d.spanBits
	d.chargeCPU(d.spanBits * cyclesPerBit)
	d.curBits -= d.spanBits
	d.stream()
}

// finish completes the in-flight fetch and starts the next queued one.
func (d *Downloader) finish() {
	remaining := d.curBits
	d.bitsRx += remaining
	d.chargeCPU(remaining * cyclesPerBit)
	d.fetches++
	done := d.curDone
	d.curDone = nil
	// Let the next queued fetch (if any) keep the radio active; otherwise
	// end the burst.
	d.radio.SetTransferring(false)
	if done != nil {
		done(d.eng.Now())
	}
	d.next()
}

func (d *Downloader) chargeCPU(cycles float64) {
	if d.core == nil || cycles <= 0 {
		return
	}
	if err := d.core.Submit(cpu.Job{Cycles: cycles, Priority: cpu.PrioNetwork}); err != nil && d.subErr == nil {
		d.subErr = err
	}
}

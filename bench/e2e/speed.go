package main

import (
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The host this benchmark is calibrated on runs the same code up to 1.8×
// slower for seconds to minutes at a time, on both vCPUs at once, with no
// steal time: per-thread CPU time stretches exactly as wall time does. Raw
// timings then spread by 15–28% between runs. The speed probe measures that
// slowdown with a fixed reference kernel and the timed metrics are scaled by
// it, which removes most of the host's share of the spread.
//
// The kernel lives in the benchmark, so a change to the program under test
// cannot speed it up: a faster program still reads as faster.

const (
	// speedPeriod is how often the probe runs one kernel chunk.
	speedPeriod = 10 * time.Millisecond
	// refChunkIters is the kernel work per chunk, about 0.25 ms of CPU.
	refChunkIters = 1500
	// refChunkNs is the chunk's CPU time that defines reference speed: a
	// timing taken while the chunk costs refChunkNs is reported unscaled.
	refChunkNs = 250_000
)

// refEvent is one pending event of the reference kernel's queue.
type refEvent struct {
	at   float64
	kind int
}

// refKernel is a fixed piece of work shaped like the simulator's inner
// loop: a binary-heap event queue, string-keyed map updates and float math.
// It allocates nothing, so the garbage collector never charges it assist
// work, and its cost does not depend on the program's heap.
type refKernel struct {
	heap []refEvent
	acc  map[string]float64
	keys []string
	x    uint64
	sink float64
}

func newRefKernel() *refKernel {
	k := &refKernel{heap: make([]refEvent, 0, 64), acc: map[string]float64{}, x: 88172645463325252}
	for i := 0; i < 16; i++ {
		key := "state" + strconv.Itoa(i)
		k.keys = append(k.keys, key)
		k.acc[key] = 0
	}
	for i := 0; i < 64; i++ {
		k.push(refEvent{float64(i), i % 7})
	}
	return k
}

func (k *refKernel) push(e refEvent) {
	h := append(k.heap, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	k.heap = h
}

func (k *refKernel) pop() refEvent {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].at < h[c].at {
			c++
		}
		if h[i].at <= h[c].at {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	k.heap = h
	return top
}

// run processes n events; the queue keeps its size, so every call does the
// same work.
func (k *refKernel) run(n int) {
	for i := 0; i < n; i++ {
		e := k.pop()
		k.x ^= k.x << 13
		k.x ^= k.x >> 7
		k.x ^= k.x << 17
		d := -math.Log(float64(k.x%1_000_000+1) / 1_000_001)
		k.acc[k.keys[e.kind+int(k.x%9)]] += d * math.Exp(-d)
		k.sink += math.Sqrt(d)
		k.push(refEvent{e.at + d, int(k.x % 7)})
	}
}

// speedProbe runs a kernel chunk every speedPeriod on its own OS thread and
// times it in that thread's CPU time, so a chunk the Go or OS scheduler
// holds back is not read as a slow host. About 2.5% of one CPU.
type speedProbe struct {
	stopc, done chan struct{}
	stopOnce    sync.Once

	mu sync.Mutex
	at []time.Time // each chunk's midpoint
	f  []float64   // refChunkNs over the chunk's CPU time: above 1 is faster
}

func startSpeedProbe() *speedProbe {
	p := &speedProbe{stopc: make(chan struct{}), done: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		defer close(p.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		k := newRefKernel()
		k.run(refChunkIters) // fault in the code and data
		close(ready)
		t := time.NewTicker(speedPeriod)
		defer t.Stop()
		for {
			t0, c0 := time.Now(), threadCPUTime()
			k.run(refChunkIters)
			c1, t1 := threadCPUTime(), time.Now()
			if c1 > c0 {
				p.mu.Lock()
				p.at = append(p.at, t0.Add(t1.Sub(t0)/2))
				p.f = append(p.f, refChunkNs/float64(c1-c0))
				p.mu.Unlock()
			}
			select {
			case <-p.stopc:
				return
			case <-t.C:
			}
		}
	}()
	<-ready
	return p
}

// stop returns once the probe's goroutine has exited; the samples stay.
func (p *speedProbe) stop() {
	p.stopOnce.Do(func() { close(p.stopc) })
	<-p.done
}

// factor is the host's mean speed over [a, b], widened by a probe period on
// each side so that even a short interval averages a few chunks. A timing
// taken over [a, b] times factor(a, b) is the timing at reference speed.
func (p *speedProbe) factor(a, b time.Time) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.f) == 0 {
		return 1
	}
	lo := sort.Search(len(p.at), func(i int) bool { return !p.at[i].Before(a.Add(-speedPeriod)) })
	hi := sort.Search(len(p.at), func(i int) bool { return p.at[i].After(b.Add(speedPeriod)) })
	if lo >= hi { // no chunk near the interval: take the nearest one
		i := min(lo, len(p.at)-1)
		if i > 0 && a.Sub(p.at[i-1]) < p.at[i].Sub(b) {
			i--
		}
		return p.f[i]
	}
	var s float64
	for _, f := range p.f[lo:hi] {
		s += f
	}
	return s / float64(hi-lo)
}

// chunks returns how many chunks the probe has timed.
func (p *speedProbe) chunks() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.f)
}

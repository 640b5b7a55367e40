package cpu

import (
	"math/rand"
	"testing"

	"videodvfs/internal/sim"
)

// queued is the slice FIFO's record of one pushed job.
type queued struct {
	id   float64
	prio Priority
}

// checkRing requires the ring to hold exactly want, in order from its
// head, and every other slot to be the zero Job, so no popped or cleared
// job's OnDone stays reachable.
func checkRing(t *testing.T, q *jobQueue, want []queued) {
	t.Helper()
	if q.n != len(want) {
		t.Fatalf("ring holds %d jobs, FIFO %d", q.n, len(want))
	}
	for k := range q.buf {
		i := k - q.head
		if i < 0 {
			i += len(q.buf)
		}
		j := q.buf[k]
		if i >= q.n {
			if j.Cycles != 0 || j.Priority != 0 || j.OnDone != nil {
				t.Fatalf("empty slot %d holds a job (cycles %v, OnDone set %v)", k, j.Cycles, j.OnDone != nil)
			}
			continue
		}
		if j.Cycles != want[i].id || j.Priority != want[i].prio || j.OnDone == nil {
			t.Fatalf("slot %d (FIFO position %d) holds job %v/%d, want %v/%d", k, i, j.Cycles, j.Priority, want[i].id, want[i].prio)
		}
	}
}

// TestJobQueueMatchesFIFO drives the job ring and a slice FIFO through
// seeded push, pop and clear sequences and compares them after every
// step: the order, each job's fields and callback, and that every slot a
// pop or clear empties holds no OnDone. The scripts must grow a ring
// while it is wrapped. A core reset mid-run must leave no OnDone in any
// ring or in the running job's slot.
func TestJobQueueMatchesFIFO(t *testing.T) {
	wrappedGrowths := 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q jobQueue
		var ref []queued
		var next float64
		ran := -1.0
		pushBias := 40 + rng.Intn(30) // percent of steps that push
		for step := 0; step < 600; step++ {
			switch r := rng.Intn(100); {
			case r < pushBias:
				id := next
				next++
				p := Priority(rng.Intn(int(PrioBackground) + 1))
				if q.n == len(q.buf) && q.head != 0 {
					wrappedGrowths++
				}
				q.push(Job{Cycles: id, Priority: p, OnDone: func(sim.Time) { ran = id }})
				ref = append(ref, queued{id, p})
			case r < 98:
				if len(ref) == 0 {
					continue
				}
				j := q.pop()
				j.OnDone(0)
				if j.Cycles != ref[0].id || j.Priority != ref[0].prio || ran != ref[0].id {
					t.Fatalf("seed %d step %d: popped job %v/%d (ran %v), want %v/%d", seed, step, j.Cycles, j.Priority, ran, ref[0].id, ref[0].prio)
				}
				ref = ref[1:]
			default:
				q.clear()
				ref = ref[:0]
			}
			checkRing(t, &q, ref)
		}
	}
	if wrappedGrowths == 0 {
		t.Fatal("no script grew a wrapped ring")
	}

	eng, core := newTestCore(t, 0)
	done := 0
	for i := 0; i < 3*minJobRing; i++ {
		for p := PrioDecode; p <= PrioBackground; p++ {
			if err := core.Submit(Job{Cycles: 1e6, Priority: p, OnDone: func(sim.Time) { done++ }}); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng.RunUntil(20 * sim.Millisecond) // 1 ms a job: about 20 of 144 run
	ranBefore := done
	if ranBefore == 0 || core.QueueLen() == 0 {
		t.Fatalf("%d jobs done, %d queued: the reset must meet a run mid-way", ranBefore, core.QueueLen())
	}
	if err := core.Reset(testModel(0)); err != nil {
		t.Fatal(err)
	}
	for p := range core.queues {
		checkRing(t, &core.queues[p], nil)
	}
	if core.current.job.OnDone != nil {
		t.Fatal("the reset core still holds the running job's OnDone")
	}
	eng.Run()
	if done != ranBefore {
		t.Fatalf("%d jobs completed after the reset; a reset core ran dropped jobs", done-ranBefore)
	}
}

// TestCoreJobPathAllocFree is the job path's budget: a warmed core,
// recycled by Reset on a reset engine, runs decode, network and
// background jobs and allocates nothing. Decode keeps the core busy, as
// under the energy-aware policy, so the background backlog grows several
// times past a ring's first size and is still queued at the next reset.
func TestCoreJobPathAllocFree(t *testing.T) {
	model := DeviceFlagship()
	eng := sim.NewEngine()
	core, err := NewCore(eng, model)
	if err != nil {
		t.Fatal(err)
	}
	const frames = 40
	decoded, backlog := 0, 0
	submit := func(j Job) {
		if err := core.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	var onDecode func(sim.Time)
	onDecode = func(sim.Time) {
		decoded++
		if decoded%4 == 0 {
			submit(Job{Cycles: 2e5, Priority: PrioNetwork})
		}
		for k := 0; k < 2; k++ {
			submit(Job{Cycles: 5e5, Priority: PrioBackground})
		}
		if decoded < frames {
			submit(Job{Cycles: 4e6, Priority: PrioDecode, OnDone: onDecode})
		}
	}
	run := func() {
		eng.Reset()
		if err := core.Reset(model); err != nil {
			t.Fatal(err)
		}
		decoded = 0
		submit(Job{Cycles: 4e6, Priority: PrioDecode, OnDone: onDecode})
		// Long enough for every frame, the network jobs queued behind
		// them, and about ten background jobs.
		eng.RunUntil(sim.Time(frames*4e6+frames/4*2e5+10*5e5) / sim.Time(model.OPPs[0].FreqHz))
		backlog = core.queues[PrioBackground].n
	}
	run() // grows the rings and the engine's slab
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Fatalf("a recycled core allocates %v times per run of %d decode jobs (want 0)", avg, frames)
	}
	if decoded != frames || core.Cycles(PrioNetwork) == 0 {
		t.Fatalf("%d frames decoded, %v network cycles: the budget measured too little work", decoded, core.Cycles(PrioNetwork))
	}
	if backlog <= 2*minJobRing {
		t.Fatalf("background backlog %d at the reset, want more than %d", backlog, 2*minJobRing)
	}
}

package experiments

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"videodvfs/internal/lru"
	"videodvfs/internal/sim"
	"videodvfs/internal/trace"
	"videodvfs/internal/video"
)

// setInputBudget empties the input memo under a new byte budget and
// returns a function restoring the previous memo. A budget of 0 stores
// nothing, so every run regenerates its inputs.
func setInputBudget(budget int64) (restore func()) {
	m := &inputs
	m.mu.Lock()
	prev := m.lru
	m.lru = lru.New[inputKey, input](budget)
	m.mu.Unlock()
	return func() {
		m.mu.Lock()
		m.lru = prev
		m.mu.Unlock()
	}
}

// TestInputMemoStaysWithinBudget stores random sequences of inputs into a
// small memo: its charged bytes never exceed the budget, an input costing
// more than the budget is never stored, one within it always is, and the
// charged bytes are the sum of what the memo holds.
func TestInputMemoStaysWithinBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		budget := int64(rng.Intn(4096))
		m := &inputMemo{lru: lru.New[inputKey, input](budget)}
		costs := make(map[inputKey]int64)
		for op := 0; op < 300; op++ {
			key := inputKey{seed: int64(rng.Intn(40)), dur: sim.Time(rng.Intn(3))}
			if _, ok := m.load(key); ok {
				continue
			}
			cost := int64(1 + rng.Intn(1024))
			if rng.Intn(10) == 0 {
				cost = budget + 1 + int64(rng.Intn(100))
			}
			m.store(key, input{}, cost)
			costs[key] = cost
			if _, stored := m.lru.Get(key); stored != (cost <= budget) {
				t.Fatalf("trial %d: input costing %d B under a %d B budget: stored %v", trial, cost, budget, stored)
			}
			if b := m.lru.Bytes(); b > budget {
				t.Fatalf("trial %d op %d: memo charges %d B, budget %d B", trial, op, b, budget)
			}
		}
		var held int64
		n := 0
		for key, cost := range costs {
			if _, ok := m.lru.Get(key); ok {
				held += cost
				n++
			}
		}
		if held != m.lru.Bytes() || n != m.lru.Len() {
			t.Fatalf("trial %d: memo holds %d inputs of %d B but reports %d of %d B", trial, n, held, m.lru.Len(), m.lru.Bytes())
		}
	}
}

// TestInputMemoConcurrentUse loads and stores from several goroutines at
// once into a memo small enough to evict constantly: every lookup is
// counted once and the budget holds (run it under -race).
func TestInputMemoConcurrentUse(t *testing.T) {
	const workers, ops, budget = 8, 500, 2048
	m := &inputMemo{lru: lru.New[inputKey, input](budget)}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				key := inputKey{seed: int64(rng.Intn(64))}
				if _, ok := m.load(key); !ok {
					m.store(key, input{}, int64(1+rng.Intn(256)))
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if m.hits+m.misses != workers*ops || m.lru.Bytes() > budget {
		t.Fatalf("%d hits + %d misses over %d lookups; %d B charged under a %d B budget",
			m.hits, m.misses, workers*ops, m.lru.Bytes(), budget)
	}
}

// TestRenditionsSharedAcrossRequestShapes checks that the memo is keyed
// by what the generator reads: a fixed 720p run, a ladder run and a run
// naming codec "h264" of the same title, seed and duration all resolve to
// one 720p stream, and an HEVC ladder, which the generator renders with
// the default codec, to the same ladder.
func TestRenditionsSharedAcrossRequestShapes(t *testing.T) {
	resolve := func(shape RunConfig) []*video.Stream {
		t.Helper()
		cfg := DefaultRunConfig()
		cfg.Title, cfg.Duration, cfg.Seed = video.TitleNews, 7*sim.Second, 9001
		cfg.Rung, cfg.ABR, cfg.Codec = shape.Rung, shape.ABR, shape.Codec
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		streams, _, err := buildRenditions(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return streams
	}
	fixed := resolve(RunConfig{Rung: video.R720p})
	h264 := resolve(RunConfig{Rung: video.R720p, Codec: "h264"})
	ladder := resolve(RunConfig{ABR: ABRBBA})
	hevcLadder := resolve(RunConfig{ABR: ABRRate, Codec: "hevc"})
	if len(fixed) != 1 || len(ladder) != 4 {
		t.Fatalf("got %d fixed and %d ladder renditions, want 1 and 4", len(fixed), len(ladder))
	}
	if fixed[0] != h264[0] || fixed[0] != ladder[2] {
		t.Fatalf("720p renditions differ: fixed %p, h264 %p, ladder %p", fixed[0], h264[0], ladder[2])
	}
	for i := range ladder {
		if ladder[i] != hevcLadder[i] {
			t.Fatalf("rung %d: h264 ladder %p, hevc ladder %p", i, ladder[i], hevcLadder[i])
		}
	}
	if hevc := resolve(RunConfig{Rung: video.R720p, Codec: "hevc"}); hevc[0] == fixed[0] {
		t.Fatal("a fixed HEVC run shares the H.264 rendition")
	}
}

// TestGoldenOutputsWithoutMemo rebuilds every golden table and the golden
// trace with the memo storing nothing, so every run generates its own
// inputs: the outputs must not depend on what the memo holds.
func TestGoldenOutputsWithoutMemo(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suite rebuilds the full evaluation")
	}
	if *update {
		t.Skip("the golden files are rewritten by TestGoldenTables")
	}
	defer setInputBudget(0)()
	before := InputMemoStats()
	checkGoldenTables(t)

	cfg := DefaultRunConfig()
	cfg.Duration = 5 * sim.Second
	var buf bytes.Buffer
	sink := trace.NewJSONL(&buf)
	cfg.Tracer = sink
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "trace", "testdata", "golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("the golden trace drifted with the memo off")
	}
	if st := InputMemoStats(); st.Entries != 0 || st.Bytes != 0 || st.Hits != before.Hits || st.Misses == before.Misses {
		t.Fatalf("a 0 B memo holds %d entries, %d B, and served %d hits in %d lookups",
			st.Entries, st.Bytes, st.Hits-before.Hits, st.Hits+st.Misses-before.Hits-before.Misses)
	}
}

package cohort

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"videodvfs/internal/experiments"
	"videodvfs/internal/sim"
)

// partCfg is a small multi-shard cohort for the distributed-seam tests.
func partCfg() Config {
	return Config{Base: shortBase(), Viewers: 36, Shards: 4, Seed: 5}
}

// The distributed seam's whole contract: running the shards in disjoint
// subsets (here: three uneven parts), serializing the states through
// JSON as a fleet would, and merging must reproduce the single-node
// Result bit for bit — DeepEqual, not tolerances.
func TestPartsMergeBitIdenticalToRun(t *testing.T) {
	cfg := partCfg()
	want, err := Run(cfg)
	if err != nil {
		t.Fatalf("whole run: %v", err)
	}

	var parts []Partial
	for _, set := range [][]int{{2}, {0, 3}, {1}} {
		p, err := RunPart(cfg, set)
		if err != nil {
			t.Fatalf("RunPart(%v): %v", set, err)
		}
		// Round-trip the partial through its wire form: the merge must
		// survive JSON exactly (float64s encode shortest-form, bins are
		// integers).
		wire, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("marshal partial: %v", err)
		}
		var back Partial
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatalf("unmarshal partial: %v", err)
		}
		parts = append(parts, back)
	}

	got, err := MergeParts(parts)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged parts differ from single-node run:\n got %+v\nwant %+v", got, want)
	}
}

// One part holding every shard is the degenerate single-worker fleet; it
// must also merge to the exact Result.
func TestSinglePartCoversWholeCohort(t *testing.T) {
	cfg := partCfg()
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := RunPart(cfg, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := MergeParts([]Partial{p})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("single-part merge differs from run:\n got %+v\nwant %+v", got, want)
	}
}

func TestRunPartRejects(t *testing.T) {
	cfg := partCfg()
	cases := map[string]struct {
		mutate func(*Config)
		shards []int
	}{
		"empty set":     {nil, nil},
		"out of range":  {nil, []int{0, 4}},
		"negative":      {nil, []int{-1}},
		"duplicate":     {nil, []int{1, 1}},
		"rollup cb":     {func(c *Config) { c.OnRollup = func(Rollup) {} }, []int{0}},
		"invalid base ": {func(c *Config) { c.Viewers = 0 }, []int{0}},
	}
	for name, tc := range cases {
		c := cfg
		if tc.mutate != nil {
			tc.mutate(&c)
		}
		if _, err := RunPart(c, tc.shards); err == nil {
			t.Errorf("%s: RunPart accepted", name)
		}
	}
}

func TestMergePartsRejects(t *testing.T) {
	cfg := partCfg()
	p01, err := RunPart(cfg, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	p23, err := RunPart(cfg, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := MergeParts(nil); err == nil {
		t.Error("empty merge accepted")
	}
	if _, err := MergeParts([]Partial{p01}); err == nil {
		t.Error("missing shards accepted")
	}
	if _, err := MergeParts([]Partial{p01, p01, p23}); err == nil {
		t.Error("duplicate shard coverage accepted")
	}
	other := p23
	other.Viewers++
	if _, err := MergeParts([]Partial{p01, other}); err == nil {
		t.Error("mismatched layouts accepted")
	}
	corrupt := p23
	corrupt.States = append([]ShardState(nil), p23.States...)
	corrupt.States[0].Shard = 99
	if _, err := MergeParts([]Partial{p01, corrupt}); err == nil {
		t.Error("out-of-range shard index accepted")
	}

	// Shard states no run could produce, each written over a real one.
	// Non-finite floats cannot arrive as JSON but can through the Go API.
	nonFinite := []stateCorruption{
		{"NaN energy sum", func(st *ShardState) { st.RadioJ = math.NaN() }},
		{"infinite end", func(st *ShardState) { st.MaxEnd = sim.Time(math.Inf(1)) }},
	}
	for _, c := range append(nonFinite, stateCorruptions...) {
		bad := corrupted(t, p23, c.apply)
		if res, err := MergeParts([]Partial{p01, bad}); err == nil {
			t.Errorf("%s: merge accepted: %+v", c.name, res)
		}
	}
	if _, err := MergeParts([]Partial{p23, p01}); err != nil {
		t.Errorf("real parts refused: %v", err)
	}
}

// stateCorruption rewrites a real shard state into one no run produces.
type stateCorruption struct {
	name  string
	apply func(st *ShardState)
}

// stateCorruptions each break one rule a real shard state keeps.
var stateCorruptions = []stateCorruption{
	{"completed raised by 100", func(st *ShardState) { st.Completed += 100 }},
	{"negative errors", func(st *ShardState) { st.Errors = -7 }},
	{"finished 1000", func(st *ShardState) { st.Finished = 1000 }},
	{"all three at once", func(st *ShardState) { st.Completed += 100; st.Errors = -7; st.Finished = 1000 }},
	{"finished beyond started", func(st *ShardState) { st.Finished++; st.Errors++ }},
	{"negative horizon cut", func(st *ShardState) { st.HorizonCut = -1 }},
	{"horizon cuts beyond errors", func(st *ShardState) { st.HorizonCut = st.Errors + 1 }},
	{"sketch n beyond completed", func(st *ShardState) { st.Energy.N++; st.Energy.Zero++ }},
	{"sketch bins wrap", func(st *ShardState) {
		st.Startup.Bins = map[int]uint64{1: math.MaxUint64, 2: st.Startup.N + 1}
		st.Startup.Zero = 0
	}},
	{"sketch zero count wraps", func(st *ShardState) {
		st.Startup.Bins = map[int]uint64{1: st.Startup.N + 1}
		st.Startup.Zero = math.MaxUint64
	}},
	{"negative energy sum", func(st *ShardState) { st.CPUJ = -1 }},
	{"negative end", func(st *ShardState) { st.MaxEnd = -1 }},
	{"parts start more than the cohort", func(st *ShardState) { st.Started += 1000 }},
}

// corrupted returns a deep copy of p (through its wire form) with apply
// run on its first state.
func corrupted(t testing.TB, p Partial, apply func(*ShardState)) Partial {
	t.Helper()
	wire, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var c Partial
	if err := json.Unmarshal(wire, &c); err != nil {
		t.Fatal(err)
	}
	apply(&c.States[0])
	return c
}

// MergeParts over any partition of a cohort's shards, each part run on
// its own and the parts merged in any order, must equal the single-node
// Run: DeepEqual and byte-equal JSON. Every real shard state also closes
// its accounting, with one sketch observation per completed viewer.
func TestMergePartsMatchesRunOverRandomSplits(t *testing.T) {
	base := shortBase()
	base.Duration = 6 * sim.Second
	cohorts := []struct {
		name string
		cfg  Config
	}{
		{"no cell", Config{Base: base, Viewers: 30, Shards: 5, Seed: 3}},
		{"sectored cell", Config{Base: base, Viewers: 30, Shards: 4, Seed: 4,
			Cell: &Cell{CapacityMbps: 40, Sectors: 6}}},
		{"poisson arrivals", Config{Base: base, Viewers: 30, Shards: 3, Seed: 5,
			Arrival: Arrival{Kind: ArrivalPoisson, RatePerSec: 10}}},
	}
	rng := rand.New(rand.NewSource(16))
	for _, c := range cohorts {
		want, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: run: %v", c.name, err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		n := ShardCount(c.cfg)
		for trial := 0; trial < 3; trial++ {
			// Deal the shards into up to n sets at random, then run and
			// merge the non-empty sets in shuffled order.
			sets := make([][]int, 1+rng.Intn(n))
			for _, sh := range rng.Perm(n) {
				k := rng.Intn(len(sets))
				sets[k] = append(sets[k], sh)
			}
			var parts []Partial
			for _, set := range sets {
				if len(set) == 0 {
					continue
				}
				p, err := RunPart(c.cfg, set)
				if err != nil {
					t.Fatalf("%s: RunPart(%v): %v", c.name, set, err)
				}
				for i := range p.States {
					st := &p.States[i]
					if _, err := aggOf(st); err != nil {
						t.Fatalf("%s: real shard %d refused: %v", c.name, st.Shard, err)
					}
					for _, sk := range []uint64{st.Energy.N, st.Rebuffer.N, st.Startup.N} {
						if sk != uint64(st.Completed) {
							t.Fatalf("%s: shard %d sketch n %d, completed %d", c.name, st.Shard, sk, st.Completed)
						}
					}
				}
				parts = append(parts, p)
			}
			rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
			got, err := MergeParts(parts)
			if err != nil {
				t.Fatalf("%s: merge of %v: %v", c.name, sets, err)
			}
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || !bytes.Equal(gotJSON, wantJSON) {
				t.Fatalf("%s: merge of %v differs from run:\n got %s\nwant %s", c.name, sets, gotJSON, wantJSON)
			}
		}
	}
}

// FuzzMergeParts feeds MergeParts partials as they arrive over the wire.
// It must refuse them, or fold every state exactly once: the merge of
// the parts in reverse order is the same Result.
func FuzzMergeParts(f *testing.F) {
	cfg := partCfg()
	p01, err := RunPart(cfg, []int{0, 1})
	if err != nil {
		f.Fatal(err)
	}
	p23, err := RunPart(cfg, []int{2, 3})
	if err != nil {
		f.Fatal(err)
	}
	seed := func(parts ...Partial) {
		wire, err := json.Marshal(parts)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	seed(p01, p23)
	for _, c := range stateCorruptions {
		seed(p01, corrupted(f, p23, c.apply))
	}
	f.Fuzz(func(t *testing.T, wire []byte) {
		var parts []Partial
		if json.Unmarshal(wire, &parts) != nil {
			return
		}
		got, err := MergeParts(parts)
		if err != nil {
			return
		}
		rev := make([]Partial, len(parts))
		for i, p := range parts {
			rev[len(parts)-1-i] = p
		}
		back, err := MergeParts(rev)
		if err != nil {
			t.Fatalf("merged forward, refused in reverse: %v", err)
		}
		if !reflect.DeepEqual(got, back) {
			t.Fatalf("merge depends on part order:\nforward %+v\nreverse %+v", got, back)
		}
	})
}

// A pre-closed cancel channel aborts both whole runs and parts at the
// first rollup barrier with the typed error.
func TestCohortCancel(t *testing.T) {
	cfg := partCfg()
	ch := make(chan struct{})
	close(ch)
	cfg.Cancel = ch
	if _, err := Run(cfg); !errors.Is(err, experiments.ErrCanceled) {
		t.Fatalf("Run err = %v, want ErrCanceled", err)
	}
	if _, err := RunPart(cfg, []int{0}); !errors.Is(err, experiments.ErrCanceled) {
		t.Fatalf("RunPart err = %v, want ErrCanceled", err)
	}
	// Cancelable cohorts must never be cache-served.
	if _, ok := Key(cfg); ok {
		t.Fatal("cancelable cohort reported cacheable")
	}
}

// An armed-but-unfired cancel channel must not perturb the cohort
// result.
func TestCohortCancelUnfiredIsIdentical(t *testing.T) {
	cfg := partCfg()
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	armed := cfg
	armed.Cancel = make(chan struct{})
	got, err := Run(armed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("armed-cancel cohort differs:\n got %+v\nwant %+v", got, want)
	}
}

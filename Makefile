GO ?= go

.PHONY: check fmt vet build test alloc-budget fleet-e2e stress-e2e bench-e2e fuzz-short strict golden trace-golden bench bench-compare bench-baseline bench-gate profile

# The full local gate: formatting, vet, build, race-enabled tests
# (includes the golden regression suite and the parallel/serial
# equivalence test), the zero-allocation budget for the steady-state run
# loop, the fleet and wire-level stress end-to-end batteries, the
# benchmark module, and the evaluation rebuilt with invariants armed
# (strict). That is every correctness step CI runs except the time-boxed
# fuzz-short and the host-sensitive bench-gate.
check: fmt vet build test alloc-budget fleet-e2e stress-e2e bench-e2e strict

# Fails, naming the files, when any Go file is not gofmt-formatted.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# The memory discipline gate (DESIGN.md §8, §12): advancing the untraced
# simulation in steady state must allocate nothing, and a cohort shard
# must let go of each viewer as it finishes.
alloc-budget:
	$(GO) test ./internal/experiments -run TestRunLoopAllocBudget -count 1
	$(GO) test ./internal/sim -run TestEngineScheduleFireAllocFree -count 1
	$(GO) test ./internal/cohort -run TestShardReleasesFinishedViewers -count 1

# The fleet end-to-end battery, -count 1 so it always re-executes: a
# dvfsctl controller over real httptest dvfsd workers (byte-identical
# sweep/cohort merges, mid-sweep worker kill, 429 carry-through, probe
# revival), the worker-side cohort-part seam, the streaming-disconnect
# pool drain, and the dvfsctl daemon smoke test.
fleet-e2e:
	$(GO) test -race -count 1 ./internal/fleet ./cmd/dvfsctl
	$(GO) test -race -count 1 ./internal/server -run 'TestFleet|TestCohortPart|TestStream|TestRetryAfterSeconds'

# The wire-level stress battery, -count 1 so it always re-executes: the
# shaped origin + live player-driver over real sockets, the sim-vs-real
# equivalence and metamorphic replay checks, the ≥100-concurrency hammer
# against a real dvfsd handler, and the dvfsstress/dvfsim CLI plumbing
# (DESIGN.md §14).
stress-e2e:
	$(GO) test -race -count 1 ./internal/stress ./cmd/dvfsstress
	$(GO) test -race -count 1 ./cmd/dvfsim -run 'TestBWTraceFileReplay'

# Vet and test the end-to-end benchmark (bench/e2e): a module of its own,
# so the root vet, build and test never compile it, yet it calls the
# server and fleet APIs. Its tests include a one-second smoke run of
# every workload with the output checks armed.
bench-e2e:
	cd bench/e2e && GOPROXY=off $(GO) vet ./... && GOPROXY=off $(GO) test ./...

# Ten seconds of coverage-guided fuzzing per untrusted-input parser and
# the fleet's cohort-part merge, plus the event engine against its
# reference model (checked-in seeds live
# under */testdata/fuzz). Native fuzzing allows one -fuzz target per
# invocation, hence the separate runs.
FUZZTIME ?= 10s
fuzz-short:
	$(GO) test ./internal/experiments -run '^$$' -fuzz '^FuzzParseGovernorID$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/experiments -run '^$$' -fuzz '^FuzzParseABRID$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/experiments -run '^$$' -fuzz '^FuzzRunConfigValidate$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/experiments -run '^$$' -fuzz '^FuzzRunConfigInvariants$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/experiments -run '^$$' -fuzz '^FuzzSessionReset$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/player -run '^$$' -fuzz '^FuzzForecastSchedule$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzDecodeRunRequest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzSweepRequest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzCohortPartRequest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cohort -run '^$$' -fuzz '^FuzzMergeParts$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netsim -run '^$$' -fuzz '^FuzzTraceDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzEngineSchedule$$' -fuzztime $(FUZZTIME)

# Rebuild the full 30-experiment evaluation with the invariant checker
# riding every simulation that goes through a Session (DESIGN.md §10):
# 29 of the 30 experiments, F15 and F21 included. T7 (RunPlaylist) arms
# no checker: the checker's frame accounting follows one stream, and a
# playlist plays several. Exits non-zero on the first conservation-law
# breach; output is discarded — the audit is the point.
strict:
	$(GO) run ./cmd/exprun -strict > /dev/null
	@echo "strict: 29 of 30 experiments passed with invariants armed (T7 is not audited: its playlist plays several streams)"

# Regenerate the pinned experiment outputs after an intended model
# change, then review the diff like any other code change.
golden:
	$(GO) test ./internal/experiments -run TestGoldenTables -update

# Regenerate the pinned event-trace of the golden scenario (DESIGN.md §7)
# after an intended behavior or schema change.
trace-golden:
	$(GO) test ./internal/trace -run TestGoldenTrace -update

# Rebuild the whole evaluation through the campaign pool, serial vs
# parallel.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkRegistry' -benchtime 3x .

# The pinned hot-path benchmarks the gate and the baseline agree on: a
# run and a cohort step from the root package, the event engine on a
# run's and a cohort shard's traffic, one per queue regime (DESIGN.md §8),
# from internal/sim, and the stream generator, one rendition and the
# four-rung ladder a memo miss generates, from internal/video. With them
# runs BenchmarkHostSpeed, a fixed kernel that calls no model code:
# benchgate scales the time gate by its ratio to the baseline's, so a
# host running slower than when the baseline was pinned does not fail
# unchanged code. benchgate matches benchmarks by name, so one output
# file holds all three packages.
# 2 s samples keep the best-of-run minimum (what benchgate compares)
# inside ~3% run-to-run on a shared box; 1 s samples do not. Pin and gate
# both run at one CPU: above one, the cohort step's per-step worker
# goroutines make its allocs/op vary by a few between processes, and the
# gate allows no allocs/op increase.
GATE_BENCH = BenchmarkHostSpeed$$|BenchmarkRunNoTrace$$|BenchmarkRunReset$$|BenchmarkCohortStep$$|BenchmarkEngineRunShape$$|BenchmarkEngineCohortShape$$|BenchmarkGenerate$$|BenchmarkGenerateLadder$$
GATE_PKGS = . ./internal/sim ./internal/video
GATE_FLAGS = -benchmem -benchtime 2s -count 5 -cpu 1

# The cohort step's gated allocs/op come from a second, fixed-iteration
# run under GOGC=off. In the timed run, Go 1.24's unique-map cleanup adds
# about two allocations per GC cycle, so a sample reads one or two over
# the program's own count depending on how many cycles land in it; with
# no GC the count repeats exactly. Time and B/op still come from the
# timed run, and the pin in bench/baseline.txt stays the ceiling.
EXACT_ALLOC_BENCH = BenchmarkCohortStep$$
EXACT_ALLOC_FLAGS = -benchmem -benchtime 10x -count 1 -cpu 1

# Re-pin the hot-path baseline (bench/baseline.txt). Run on the seed (or
# after an intended perf change), then commit the new numbers.
bench-baseline:
	$(GO) test -run '^$$' -bench '$(GATE_BENCH)' $(GATE_FLAGS) $(GATE_PKGS) | tee bench/baseline.txt

# Compare the current hot path against the pinned baseline. Uses
# benchstat when installed; otherwise prints both runs side by side.
bench-compare:
	@$(GO) test -run '^$$' -bench '$(GATE_BENCH)' $(GATE_FLAGS) $(GATE_PKGS) > bench/current.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat bench/baseline.txt bench/current.txt; \
	else \
		echo "== baseline (bench/baseline.txt) =="; grep Benchmark bench/baseline.txt; \
		echo "== current (bench/current.txt) =="; grep Benchmark bench/current.txt; \
	fi

# The CI perf gate: run the pinned benchmarks and fail on >5% best-of-run time
# regression (same-machine only, at the baseline host's speed as
# BenchmarkHostSpeed measures it) or ANY allocs/op / B/op increase against
# bench/baseline.txt, reading the cohort step's allocs/op from the exact
# GOGC=off run. Emits bench/BENCH_6.json (runs/sec, ns/op, allocs/op)
# for the perf dashboard. No benchstat needed.
bench-gate:
	$(GO) test -run '^$$' -bench '$(GATE_BENCH)' $(GATE_FLAGS) $(GATE_PKGS) | tee bench/current.txt
	GOGC=off $(GO) test -run '^$$' -bench '$(EXACT_ALLOC_BENCH)' $(EXACT_ALLOC_FLAGS) . | tee bench/current-allocs.txt
	$(GO) run ./cmd/benchgate -baseline bench/baseline.txt -current bench/current.txt -allocs bench/current-allocs.txt -out bench/BENCH_6.json

# Profile the full 30-experiment campaign; inspect with
#   go tool pprof prof/exprun.cpu  (or .mem)
profile:
	@mkdir -p prof
	$(GO) run ./cmd/exprun -cpuprofile prof/exprun.cpu -memprofile prof/exprun.mem > prof/exprun.out
	@echo "profiles in prof/: inspect with 'go tool pprof prof/exprun.cpu'"

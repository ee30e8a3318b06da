GO ?= go

.PHONY: build vet fmtcheck staticcheck runcheck inlinecheck test tier1-loaded race fleetsoak crashsoak flakehunt fuzz bench profile-replay profile-generate profile-fleet benchsmoke benchdiff benchoverhead multinodesmoke sizes ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt gate: any file gofmt would rewrite fails the target. gofmt walks
# directories, not modules, so this covers bench/ (its own module) too.
fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# staticcheck is not vendored; CI installs it with `go install`. Locally
# this target is a no-op (with a note) when the binary is absent.
staticcheck:
	@command -v staticcheck >/dev/null 2>&1 \
		&& staticcheck ./... \
		|| echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"

# Every -run pattern in this Makefile must still name a test: a deleted
# or renamed test would otherwise leave its target silently green. Each
# alternative of a pattern is listed on its own (go test -list) in the
# package the pattern is run against; -run xxx, which the bench and fuzz
# targets use to select no test, is skipped.
runcheck:
	@fail=0; \
	for spec in $$(sed -n "/^\s*#/d; s/.*-run '\{0,1\}\([^ ']*\)'\{0,1\} \(\.[^ ]*\).*/\1@\2/p" Makefile); do \
		pat=$${spec%@*}; pkg=$${spec#*@}; \
		[ "$$pat" = xxx ] && continue; \
		for alt in $$(echo "$$pat" | tr '|' ' '); do \
			$(GO) test -list "$$alt" $$pkg | grep -q '^Test' \
				|| { echo "runcheck: -run $$alt matches no test in $$pkg"; fail=1; }; \
		done; \
	done; \
	exit $$fail

# The shape guards of every mat …Into kernel must inline: each runs on
# every kernel call of the NUISE step, and a guard the compiler stops
# inlining (after an edit, or in a Go release with another inlining
# budget) costs a call per kernel that no test would see.
inlinecheck:
	@out=$$($(GO) build -gcflags=-m ./internal/mat/ 2>&1); fail=0; \
	for f in mustShape mustSameShape mustSquare mustDistinct; do \
		echo "$$out" | grep -q ": can inline $$f$$" \
			|| { echo "inlinecheck: $$f does not inline"; fail=1; }; \
	done; \
	exit $$fail

test:
	$(GO) test ./...

# The size ratchet (ROADMAP standing rules): non-test Go lines in the core
# four packages, non-test Go lines outside bench/, and DESIGN.md in bytes.
sizes:
	@echo "internal/{core,mat,fleet,store} non-test Go lines: $$(find internal/core internal/mat internal/fleet internal/store -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@echo "non-test Go lines outside bench/: $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)"
	@echo "DESIGN.md bytes: $$(wc -c < DESIGN.md)"

# The engine and the decision windows (stepped from many goroutines by
# a fleet), the lock-free telemetry registry, the store's group-commit
# flusher, the fleet session manager, and the client's streams (a
# reader, a writer and a ctx-triggered close on one connection, also
# through the router) are the concurrency-sensitive surfaces; run them
# under the race detector. So is the scenario suite runner, which steps
# missions on Workers goroutines into indexed slots, and the simulator's
# plan memo, which those goroutines share, as is the χ² quantile table
# every engine and decider of a process fills.
race:
	$(GO) test -race ./internal/core/... ./internal/detect/... ./internal/telemetry/... ./internal/store/... ./internal/fleet/... ./client/ ./internal/router/ ./internal/sim/ ./internal/stat/
	$(GO) test -race -run 'TestSuiteWorkersDeterminism' ./internal/scenario/

# Fleet soak: the multi-session service suite under the race detector —
# N concurrent sessions bit-for-bit equal to N sequential detectors,
# backpressure/eviction/drain, the 32-session live-server acceptance
# run, and the remote trace replay round trip.
fleetsoak:
	$(GO) test -race -count=1 ./internal/fleet/...
	$(GO) test -race -count=1 -run 'TestServeFleet|TestReplayRemote' ./cmd/roboads/

# Crash soak: the durability acceptance run — a 32-session live server
# killed with SIGKILL mid-stream, restarted on the same state directory,
# every acknowledged frame recovered and the continued report streams
# bit-for-bit equal to uninterrupted runs. Runs under the race detector
# (the helper server process inherits the instrumented binary). Then the
# store's crash points — the shared log cut at every byte of its last
# records, a bit flipped in every record, a snapshot past the log's end,
# the refusal of the per-session layout, the sticky sync failure — and the
# fleet's recovery, checkpoint and log-bounding tests over them, plus a
# held sync that must not hold the shard worker.
crashsoak:
	ROBOADS_CRASH_SESSIONS=32 $(GO) test -race -count=1 -timeout 10m \
		-run TestServeCrashRecovery ./cmd/roboads/
	$(GO) test -race -count=1 -run 'TestCrashPoint|TestSnapshotPastLogEnd|TestOpenRefusesPerSessionWAL|TestRecover|TestBoundedDisk|TestMaterialize|TestGroupCommitSyncFailure' ./internal/store/
	$(GO) test -race -count=1 -run 'TestFleetDurable|TestFleetRecovery|TestFleetEviction|TestFleetCheckpoint|TestCheckpointDuringPendingCommit|TestLogFailureIsSticky|TestJanitorCheckpointsLaggingSession|TestWorkerStepsPastAHeldSync' ./internal/fleet/

# LOADED prefixes a recipe's command with four busy-looping processes that
# compete for the CPUs until the command exits.
LOADED = set -e; pids=""; \
	for i in 1 2 3 4; do sh -c 'while :; do :; done' & pids="$$pids $$!"; done; \
	trap 'kill $$pids 2>/dev/null' EXIT INT TERM;

# Flake hunt: the store and fleet suites 20 times over under the race
# detector, on two Ps with four busy-looping processes competing for
# the CPUs — the conditions under which a goroutine is preempted between
# two steps that only look atomic (the reply-before-idle eviction flake
# was invisible on a quiet machine). Any failure in 20 is a bug. Covers
# the shared log's concurrency (appenders x flusher x rotation x GC x
# replica reads: TestPipelineHistory, TestGroupCommit*, TestBoundedDisk)
# and its crash-point sweeps. Then every package with property tests
# (testing/quick, seeded through internal/testkit) 50 times over on fresh
# seeds, where tier-1 runs each test's fixed seed: a failing check logs
# its seed and the command that replays it.
flakehunt:
	@$(LOADED) GOMAXPROCS=2 $(GO) test -race -count=20 -timeout 60m ./internal/store/ ./internal/fleet/
	ROBOADS_QUICK_SEED=fresh $(GO) test -count=50 ./internal/mat/ ./internal/stat/ ./internal/dynamics/ ./internal/sensors/ ./internal/world/ ./internal/plan/ ./internal/detect/

# Tier-1 under load (ROADMAP item 4c): the whole suite, uncached, on two
# Ps with the same four CPU burners as flakehunt. A test that passes on a
# quiet machine and fails here has a scheduling or timing assumption in it.
tier1-loaded:
	@$(LOADED) GOMAXPROCS=2 $(GO) test -count=1 ./...

# Fuzz smoke: each decoder target, the matrix product and Cholesky
# kernels against their generic reference, and the LiDAR's fused h/C
# evaluation against H and C, gets a short native-fuzzing
# burst (go test -fuzz accepts one target per invocation). The corpus
# grows in testdata/fuzz and regressions replay as ordinary seed tests.
fuzz:
	$(GO) test -run xxx -fuzz FuzzDecodeSnapshot -fuzztime 15s ./internal/store/
	$(GO) test -run xxx -fuzz FuzzDecodeWALRecord -fuzztime 15s ./internal/store/
	$(GO) test -run xxx -fuzz FuzzDecodeLog -fuzztime 15s ./internal/store/
	$(GO) test -run xxx -fuzz FuzzTraceReader -fuzztime 15s ./internal/trace/
	$(GO) test -run xxx -fuzz FuzzFrameRecord -fuzztime 15s ./internal/trace/
	$(GO) test -run xxx -fuzz FuzzReadReplyRecord -fuzztime 15s ./internal/api/
	$(GO) test -run xxx -fuzz FuzzWireDecode -fuzztime 15s ./internal/fleet/
	$(GO) test -run xxx -fuzz FuzzFrameBatch -fuzztime 15s ./internal/fleet/
	$(GO) test -run xxx -fuzz FuzzScenarioDecode -fuzztime 15s ./internal/scenario/
	$(GO) test -run xxx -fuzz FuzzMulKernels -fuzztime 15s ./internal/mat/
	$(GO) test -run xxx -fuzz FuzzCholKernels -fuzztime 15s ./internal/mat/
	$(GO) test -run xxx -fuzz FuzzLidarHC -fuzztime 15s ./internal/sensors/

bench:
	$(GO) test -run xxx -bench 'EngineFleet|FleetStep|NUISEStep' -benchtime=1500x .

# CPU and allocation profiles of the suite replay (BenchmarkSuiteReplay,
# the detect_replay workload as a Go benchmark), written with the test
# binary outside the tree. The missions are generated once (under a
# second; -focus skips it). Read them with
#   go tool pprof -top -focus 'Detector..Step' $(PROFILE_DIR)/roboads.test $(PROFILE_DIR)/cpu.prof
#   go tool pprof -sample_index=alloc_space -top $(PROFILE_DIR)/roboads.test $(PROFILE_DIR)/mem.prof
PROFILE_DIR ?= $(or $(TMPDIR),/tmp)/roboads-profile
profile-replay:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run xxx -bench '^BenchmarkSuiteReplay$$' -benchtime=100x \
		-o $(PROFILE_DIR)/roboads.test -outputdir $(PROFILE_DIR) \
		-cpuprofile cpu.prof -memprofile mem.prof .
	@echo "profiles in $(PROFILE_DIR)"

# The same for generating the suite's missions (BenchmarkSuiteGenerate:
# one cold trial an iteration, its two RRT* plans and then 26 simulator
# runs), what detect_replay reports as setup_s. Profiles are named
# gen-*.prof beside profile-replay's.
profile-generate:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run xxx -bench '^BenchmarkSuiteGenerate$$' -benchtime=10x \
		-o $(PROFILE_DIR)/roboads.test -outputdir $(PROFILE_DIR) \
		-cpuprofile gen-cpu.prof -memprofile gen-mem.prof .
	@echo "profiles in $(PROFILE_DIR)"

# The same for bench/'s fleet_durable round (BenchmarkFleetDurableRound:
# 16 durable sessions under a 2 ms commit window, a 4-frame SubmitBatch to
# each, then a Wait on each; its frames are made before the timer starts,
# and its state directory is a temporary one). Profiles are named
# fleet-*.prof beside profile-replay's; every goroutine's allocations
# count, so read the program's bytes with
#   go tool pprof -sample_index=alloc_space -top $(PROFILE_DIR)/roboads.test $(PROFILE_DIR)/fleet-mem.prof
profile-fleet:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run xxx -bench '^BenchmarkFleetDurableRound$$' -benchtime=2000x \
		-o $(PROFILE_DIR)/roboads.test -outputdir $(PROFILE_DIR) \
		-cpuprofile fleet-cpu.prof -memprofile fleet-mem.prof .
	@echo "profiles in $(PROFILE_DIR)"

# The benchmark (bench/, BENCHMARK.json) is a Go module of its own, so
# `go build ./...` at the root never compiles it: vet and short-test it
# here so a change to an internal API it uses fails in-repo.
benchsmoke:
	cd bench && $(GO) vet . && $(GO) test -short .

# Regression guard: re-runs the benchmark command recorded in
# BENCH_engine.json and fails if any tracked benchmark is >15% slower
# (ns/op) than the recorded baseline. Authoritative on the recording
# hardware; informational elsewhere (CI runs it with continue-on-error).
benchdiff:
	$(GO) run ./cmd/benchdiff -baseline BENCH_engine.json

# Overhead gate: the nil-Observer, nil-fleet engine path (and the
# enabled-path pin BenchmarkEngineStepTelemetry) must stay within 5% of
# the recorded baseline — the telemetry layer is contractually free when
# disabled, and the fleet session service is a layer above the engine,
# so hosting a fleet must not tax an in-process detector at all.
# BenchmarkFleetStep rides the same gate to pin the fleet quantum around
# one hosted detector step. The 5% threshold is
# tighter than single-run noise on shared hardware, so the gate compares
# the fastest of three long runs (-best); all three baseline entries are
# recorded under the same best-of-3 protocol. -allocs additionally pins
# allocs/op at the recorded counts exactly — allocations are
# deterministic, so disabled frame tracing (a nil Tracer in the fleet
# config) showing even one extra alloc per frame fails the gate.
benchoverhead:
	$(GO) run ./cmd/benchdiff -baseline BENCH_engine.json -threshold 0.05 -best -allocs \
		-only '^BenchmarkEngineStep(Telemetry)?$$|^BenchmarkFleetStep$$' \
		-command "$(GO) test -run xxx -bench '^BenchmarkEngineStep(Telemetry)?$$|^BenchmarkFleetStep$$' -benchtime=20000x -count=3 ."

# Multi-node smoke (DESIGN.md §14), both multi-node e2e tests. The routed
# streams test: three durable nodes behind a router, eight sessions
# streaming binary /frames through it in lockstep batches, half of them
# live-migrated to their next-ranked node and the first node SIGKILLed and
# restarted on its address and state directory, acked <= recovered <= sent
# per session and a bit-for-bit resume through the router. The replication
# test: a primary/follower pair under -ack-policy=follower, a mid-stream
# migration, a SIGKILL of the primary, follower self-promotion, and a
# bit-for-bit resume of every session's report stream.
multinodesmoke:
	$(GO) test -count=1 -run 'TestMultinode' ./cmd/roboads/

ci: build vet test race

# Standard developer entry points; everything is stdlib-only Go.

GO ?= go

.PHONY: all build build-arm64 test-go-kernels test vet race race-pkgs cover bench bench-compile bench-save bench-check fuzz no-binaries ci experiments clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# internal/nn's SIMD kernels exist only on amd64; every other architecture
# runs the Go kernels. Vetting and building for arm64 proves that path
# compiles (on amd64, vet's asmdecl check covers the assembly frames).
build-arm64:
	GOARCH=arm64 $(GO) vet ./internal/nn ./internal/forecast
	GOARCH=arm64 $(GO) build ./...

# The same Go-kernel path on amd64: with AVX off useSIMD is false, so the
# whole internal/nn suite runs gateRow's Go body, mulVecsInto, the math
# functions behind Sin, Log and Exp and the backward pass's Go products
# (TestBackwardSequenceMatchesGoKernels' go side) beside the SIMD-only
# tests' skips.
# internal/forecast and internal/trace stay out: their goldens pin
# math.Exp's FMA bits, which GODEBUG=cpu.avx=off also turns off.
test-go-kernels:
	GODEBUG=cpu.avx=off $(GO) test ./internal/nn

# RACE_PKGS are the packages with real concurrency (worker pools,
# gradient replicas, the shared model zoo, the chaos cursor, the trace
# generator's shared scratch, the fleet controller's batched planning,
# and the two daemons, whose tests serve -listen while they run); the
# default test target runs them under the race detector on top of the
# plain suite. race-pkgs is the one place they run from: test, ci and the
# CI workflow's race step all call it.
RACE_PKGS = ./internal/parallel/... ./internal/nn/... ./internal/forecast/... ./internal/experiment/... ./internal/obs/... ./internal/scaler/... ./internal/chaos/... ./internal/cluster/... ./internal/persist/... ./internal/fleet/... ./internal/trace/... ./cmd/fleetsim/... ./cmd/autoscaled/...

test:
	$(GO) test ./...
	$(MAKE) race-pkgs

race-pkgs:
	$(GO) test -race $(RACE_PKGS)

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Regenerate every paper table/figure as benchmarks (quick settings).
bench:
	$(GO) test -bench . -benchmem

# Compile and once-run every benchmark so they cannot rot.
bench-compile:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Planning fast-path latency budget: regenerate the committed baseline
# (bench-save) or gate the working tree against it (bench-check).
bench-save:
	scripts/bench_plan_round.sh save

bench-check:
	scripts/bench_plan_round.sh check

# Short fuzz pass over the segment reader (every checkpoint, a fleet's or
# a single tenant's), the series reader and the component blob decoders:
# arbitrary bytes must error cleanly, never panic or over-allocate. The
# next target drives one guard through arbitrary history edits: its
# incremental checks must agree with a fresh guard's at every step. The
# next drives the one Breaker beside the three machines it replaced, each
# in its client's tick pattern: they must agree event for event. The next
# drives a few wake guards through arbitrary park, wake and storm scripts:
# no negative allocation, no admission past the pool, and sustained demand
# always brings a guard out of parked. The next admits arbitrary demands
# against arbitrary pools: no admission past the pool, below zero or above
# demand, and no class clipped before every lower class is shed. The next loads arbitrary bytes as a guard blob and plans a failing round from each
# one accepted: the fallback ladder must not panic. The next feeds
# arbitrary fan rows to the guard's repair: a fan fanSound passes is one
# RepairFan repairs nothing in. The next adds random
# events to a chaos schedule and to the map-and-scan one it
# replaced: every lookup must agree. The next runs the nn training kernels
# on fuzzer-chosen shapes and values: every output must carry the bits of
# the one-row reference loops. It runs no unit tests (-run '^$'): the
# fuzz build's coverage counters change which payload NaN+NaN keeps, and
# TestMulVecIntoBitIdentical compares NaN payloads exactly. The next steps
# fuzzer-chosen LSTM batches on the SIMD kernels and on the Go kernels:
# both must give the same bits, and the next one sequence's gate row, at
# every lane branch and at hidden sizes that leave a partial group. The
# next runs the panel kernels that take one vector, the projections on
# the SIMD fold and the attention forward on fuzzer-chosen shapes and
# values: each must give the Go loops' bits. The next runs Sin, Log and
# Exp on fuzzer-chosen lanes: each must give the math function's bits.
# The next backpropagates fuzzer-chosen LSTM sequences on the SIMD and the
# Go kernels and takes Adam and attention backward steps: both must give
# the step-at-a-time Go loop's bits. The next holds
# the trace generator's ramp power to math.Pow's bits on any x in [0, 1]
# and exponent in (0, 1]. The next holds its diurnal shape, computed a
# block of steps at a time, to the one-step shape's bits. The next feeds arbitrary bytes to the trace CSV
# reader: each input errors or yields finite values on a regular time
# grid. The next runs the worker pool's dispatchers on
# arbitrary task and worker counts: every index once, every worker id in
# range. The next feeds arbitrary bytes to the six trained-model Loads,
# which must error cleanly like the component decoders. The next parses
# arbitrary argument vectors with the flags both daemons
# share: each fails to parse or yields a Config that Validate accepts or
# refuses, never a panic. The next holds the offset-based forecasters' warm fans to
# their cold fans bit for bit while origin, horizon and levels change
# between calls. The next holds the bucketed one-day calibration window
# to a plain step ring over fuzzer-chosen steps, fed in rounds of 12 or
# one at a time: equal counts and wQL within 1e-12 at every 12-step
# boundary. The last draws a fuzzer-chosen sequence of kinds from
# dist.Stream at a fuzzer-chosen seed: every value must carry the bits
# math/rand draws. Every target minimizes a new input for at most
# 1 s (-fuzzminimizetime; the default 60 s can eat a whole 10 s window
# on a multi-KB model blob).
fuzz:
	$(GO) test -fuzz=FuzzLoadSegment -fuzztime=10s -fuzzminimizetime=1s ./internal/persist
	$(GO) test -fuzz=FuzzLoadSeries -fuzztime=10s -fuzzminimizetime=1s ./internal/persist
	$(GO) test -fuzz=FuzzLoadComponent -fuzztime=10s -fuzzminimizetime=1s ./internal/fleet
	$(GO) test -fuzz=FuzzGuardHistories -fuzztime=10s -fuzzminimizetime=1s ./internal/scaler
	$(GO) test -fuzz=FuzzBreakerMatchesLegacy -fuzztime=10s -fuzzminimizetime=1s ./internal/scaler
	$(GO) test -fuzz=FuzzWakeSchedule -fuzztime=10s -fuzzminimizetime=1s ./internal/fleet
	$(GO) test -fuzz=FuzzAdmission -fuzztime=10s -fuzzminimizetime=1s ./internal/fleet
	$(GO) test -run '^$$' -fuzz=FuzzGuardLoad -fuzztime=10s -fuzzminimizetime=1s ./internal/scaler
	$(GO) test -run '^$$' -fuzz=FuzzRepairFan -fuzztime=10s -fuzzminimizetime=1s ./internal/scaler
	$(GO) test -fuzz=FuzzScheduleMatchesLegacy -fuzztime=10s -fuzzminimizetime=1s ./internal/chaos
	$(GO) test -run '^$$' -fuzz=FuzzTrainingKernels -fuzztime=10s -fuzzminimizetime=1s ./internal/nn
	$(GO) test -run '^$$' -fuzz=FuzzStepBatchLanes -fuzztime=10s -fuzzminimizetime=1s ./internal/nn
	$(GO) test -run '^$$' -fuzz=FuzzGateRow -fuzztime=10s -fuzzminimizetime=1s ./internal/nn
	$(GO) test -run '^$$' -fuzz=FuzzPanelLanes -fuzztime=10s -fuzzminimizetime=1s ./internal/nn
	$(GO) test -run '^$$' -fuzz=FuzzMathLanes -fuzztime=10s -fuzzminimizetime=1s ./internal/nn
	$(GO) test -run '^$$' -fuzz=FuzzBackwardLanes -fuzztime=10s -fuzzminimizetime=1s ./internal/nn
	$(GO) test -run '^$$' -fuzz=FuzzRampPow -fuzztime=10s -fuzzminimizetime=1s ./internal/trace
	$(GO) test -run '^$$' -fuzz=FuzzDiurnalBlock -fuzztime=10s -fuzzminimizetime=1s ./internal/trace
	$(GO) test -run '^$$' -fuzz=FuzzReadCSV -fuzztime=10s -fuzzminimizetime=1s ./internal/trace
	$(GO) test -run '^$$' -fuzz=FuzzForEachWorker -fuzztime=10s -fuzzminimizetime=1s ./internal/parallel
	$(GO) test -run '^$$' -fuzz=FuzzLoadModel -fuzztime=10s -fuzzminimizetime=1s ./internal/forecast
	$(GO) test -run '^$$' -fuzz=FuzzBindFlags -fuzztime=10s -fuzzminimizetime=1s ./internal/fleet
	$(GO) test -run '^$$' -fuzz=FuzzWarmMatchesCold -fuzztime=10s -fuzzminimizetime=1s ./internal/forecast
	$(GO) test -run '^$$' -fuzz=FuzzBucketsMatchStepRing -fuzztime=10s -fuzzminimizetime=1s ./internal/cluster
	$(GO) test -run '^$$' -fuzz=FuzzStreamMatchesMathRand -fuzztime=10s -fuzzminimizetime=1s ./internal/dist

# Fail when git tracks a compiled binary (an ELF file): build output
# belongs in .gitignore, not in the history.
no-binaries:
	@elf=$$(git ls-files | while IFS= read -r f; do \
		[ -f "$$f" ] && [ "$$(head -c 4 "$$f" | od -An -c | tr -d ' ')" = '177ELF' ] && echo "$$f"; \
	done); if [ -n "$$elf" ]; then echo "compiled binaries are tracked:"; echo "$$elf"; exit 1; fi

# The CI workflow's test and bench-compile jobs, runnable locally in one
# shot.
ci: build vet build-arm64 test-go-kernels no-binaries
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	$(GO) test ./...
	$(MAKE) race-pkgs
	$(MAKE) bench-compile

# Regenerate every paper table/figure with the CLI runner.
experiments:
	$(GO) run ./cmd/experiment -id all -quick

clean:
	$(GO) clean ./...

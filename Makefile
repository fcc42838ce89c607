# Standard developer entry points; everything is stdlib-only Go.

GO ?= go

.PHONY: all build build-arm64 test vet race race-pkgs cover bench bench-compile bench-save bench-check fuzz fleet-smoke slo-smoke fleet-chaos-smoke wake-smoke no-binaries ci experiments clean

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

# RACE_PKGS are the packages with real concurrency (worker pools,
# gradient replicas, the shared model zoo, the circuit breaker, the
# chaos cursor, the trace generator's shared scratch and the fleet
# controller's batched planning); the default
# test target runs them under the race detector on top of the plain
# suite. race-pkgs is the one place they run from: test, ci and the CI
# workflow's race step all call it.
RACE_PKGS = ./internal/parallel/... ./internal/nn/... ./internal/forecast/... ./internal/experiment/... ./internal/obs/... ./internal/scaler/... ./internal/chaos/... ./internal/cluster/... ./internal/persist/... ./internal/fleet/... ./internal/trace/...

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
# loads arbitrary bytes as a guard blob and plans a failing round from each
# one accepted: the fallback ladder must not panic. The next adds random
# events to a chaos schedule and to the map-and-scan one it
# replaced: every lookup must agree. The next runs the nn training kernels
# on fuzzer-chosen shapes and values: every output must carry the bits of
# the one-row reference loops. It runs no unit tests (-run '^$'): the
# fuzz build's coverage counters change which payload NaN+NaN keeps, and
# TestMulVecIntoBitIdentical compares NaN payloads exactly. The next steps
# fuzzer-chosen LSTM batches on the SIMD kernels and on the Go kernels:
# both must give the same bits. The next holds
# the trace generator's ramp power to math.Pow's bits on any x in [0, 1]
# and exponent in (0, 1]. The next holds its diurnal shape, computed a
# block of steps at a time, to the one-step shape's bits. The next feeds arbitrary bytes to the trace CSV
# reader: each input errors or yields finite values on a regular time
# grid. The next runs the worker pool's dispatchers on
# arbitrary task and worker counts: every index once, every worker id in
# range. The next feeds arbitrary bytes to the six trained-model Loads,
# which must error cleanly like the component decoders. The next parses
# arbitrary burn-rule specs: every one accepted must pass Validate. The
# next parses arbitrary argument vectors with the flags both daemons
# share: each fails to parse or yields a Config that validate accepts or
# refuses, never a panic. The next holds the rate-limited planner's
# dynamic program to a brute-force walk of every node path on small
# instances. The last holds the offset-based forecasters' warm fans to
# their cold fans bit for bit while origin, horizon and levels change
# between calls. Every target minimizes a new input for at most
# 1 s (-fuzzminimizetime; the default 60 s can eat a whole 10 s window
# on a multi-KB model blob).
fuzz:
	$(GO) test -fuzz=FuzzLoadSegment -fuzztime=10s -fuzzminimizetime=1s ./internal/persist
	$(GO) test -fuzz=FuzzLoadSeries -fuzztime=10s -fuzzminimizetime=1s ./internal/persist
	$(GO) test -fuzz=FuzzLoadComponent -fuzztime=10s -fuzzminimizetime=1s ./internal/fleet
	$(GO) test -fuzz=FuzzGuardHistories -fuzztime=10s -fuzzminimizetime=1s ./internal/scaler
	$(GO) test -fuzz=FuzzBreakerMatchesLegacy -fuzztime=10s -fuzzminimizetime=1s ./internal/scaler
	$(GO) test -run '^$$' -fuzz=FuzzGuardLoad -fuzztime=10s -fuzzminimizetime=1s ./internal/scaler
	$(GO) test -fuzz=FuzzScheduleMatchesLegacy -fuzztime=10s -fuzzminimizetime=1s ./internal/chaos
	$(GO) test -run '^$$' -fuzz=FuzzTrainingKernels -fuzztime=10s -fuzzminimizetime=1s ./internal/nn
	$(GO) test -run '^$$' -fuzz=FuzzStepBatchLanes -fuzztime=10s -fuzzminimizetime=1s ./internal/nn
	$(GO) test -run '^$$' -fuzz=FuzzRampPow -fuzztime=10s -fuzzminimizetime=1s ./internal/trace
	$(GO) test -run '^$$' -fuzz=FuzzDiurnalBlock -fuzztime=10s -fuzzminimizetime=1s ./internal/trace
	$(GO) test -run '^$$' -fuzz=FuzzReadCSV -fuzztime=10s -fuzzminimizetime=1s ./internal/trace
	$(GO) test -run '^$$' -fuzz=FuzzForEachWorker -fuzztime=10s -fuzzminimizetime=1s ./internal/parallel
	$(GO) test -run '^$$' -fuzz=FuzzLoadModel -fuzztime=10s -fuzzminimizetime=1s ./internal/forecast
	$(GO) test -run '^$$' -fuzz=FuzzParseBurnRules -fuzztime=10s -fuzzminimizetime=1s ./internal/obs
	$(GO) test -run '^$$' -fuzz=FuzzBindFlags -fuzztime=10s -fuzzminimizetime=1s ./internal/fleet
	$(GO) test -run '^$$' -fuzz=FuzzPlanConstrainedDemand -fuzztime=10s -fuzzminimizetime=1s ./internal/optimize
	$(GO) test -run '^$$' -fuzz=FuzzWarmMatchesCold -fuzztime=10s -fuzzminimizetime=1s ./internal/forecast

# Fleet determinism and durability drill (same script CI runs): worker
# counts invisible in results, kill-restart bit-identity, single-tenant
# corruption isolation, tenant-labelled metrics.
fleet-smoke:
	scripts/fleet_smoke.sh

# Fleet health plane drill (same script CI runs): deterministic
# burn-rate alert firing under chaos, /readyz across a warm restart,
# cardinality-capped exposition, SLO-on/off hash invariance.
slo-smoke:
	scripts/slo_smoke.sh

# Shared-capacity and chaos resilience drill (same script CI runs):
# zero-delta fault-free pooled baseline, deterministic shedding across
# worker counts and kill-restarts, zone-outage blast radius <= 1%,
# single-victim quarantine isolation, admission fuzzing, race run.
fleet-chaos-smoke:
	scripts/fleet_chaos_smoke.sh

# Serverless wake-from-zero drill (same script CI runs): fault-free
# scale-to-zero bit-identical across worker counts, wake-storm p99
# inside the SLO budget, zero wake-fault blast radius, kill-restart
# mid-wake bit-identity, park/wake fuzzing, race run.
wake-smoke:
	scripts/wake_smoke.sh

# Fail when git tracks a compiled binary (an ELF file): build output
# belongs in .gitignore, not in the history.
no-binaries:
	@elf=$$(git ls-files | while IFS= read -r f; do \
		[ -f "$$f" ] && [ "$$(head -c 4 "$$f" | od -An -c | tr -d ' ')" = '177ELF' ] && echo "$$f"; \
	done); if [ -n "$$elf" ]; then echo "compiled binaries are tracked:"; echo "$$elf"; exit 1; fi

# Everything the CI workflow checks, runnable locally in one shot.
ci: build vet build-arm64 no-binaries
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	$(GO) test ./...
	$(MAKE) race-pkgs
	$(MAKE) bench-compile
	$(MAKE) fleet-smoke
	$(MAKE) slo-smoke
	$(MAKE) fleet-chaos-smoke
	$(MAKE) wake-smoke

# Regenerate every paper table/figure with the CLI runner.
experiments:
	$(GO) run ./cmd/experiment -id all -quick

clean:
	$(GO) clean ./...

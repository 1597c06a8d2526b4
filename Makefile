# Tier-1 verification plus lint and smoke targets. `make check` runs
# everything CI needs in one command.

GO ?= go
# Smoke targets drop their machine-readable JSON reports here; CI
# points this at a workspace directory and uploads it as an artifact.
SMOKE_OUT ?= /tmp

.PHONY: all build test vet fmt-check lint benchmark-check check sweep-smoke sweepd-smoke scenario-smoke claims-smoke bench-queue bench bench-check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# gofmt -l lists unformatted files; fail if any.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# gatvet: the repo's own go/analysis suite (internal/analysis) that
# machine-enforces the determinism and hot-path contracts — detmap,
# wallclock, seedrand, hotpath, gatdir. Exit 1 means unannotated
# findings; fix the site or add a reasoned //gat: annotation (see
# README "Static analysis & determinism contracts").
lint:
	@$(GO) build -o /tmp/gat-gatvet ./cmd/gatvet
	@/tmp/gat-gatvet ./...
	@echo "lint: gatvet clean"

# The benchmark harness (benchmark/, run with `bash benchmark/run.sh`)
# is a Go module of its own, so the root module's build, vet, test and
# lint targets do not reach it: run its smoke tests (every workload at
# tiny scale against the committed output digests, ~10 s) and gatvet
# from inside it.
benchmark-check:
	@$(GO) build -o /tmp/gat-gatvet ./cmd/gatvet
	cd benchmark && $(GO) test ./...
	@cd benchmark && /tmp/gat-gatvet ./...
	@echo "benchmark-check: harness tests pass, gatvet clean"

# A fast end-to-end sweep, three ways byte-identical: parallel vs the
# serial reference path, and a warm content-addressed cache vs the
# cold run that filled it — with the warm run simulating nothing (the
# "[0-9]* simulated" provenance line comes from the run counter).
# The tapered-fabric scenario gets the same serial-vs-parallel gate:
# fabric link contention must not perturb deterministic reassembly —
# and -shards 4 layered on top must still reproduce the serial bytes
# (a no-op on the per-GPU engine, the real thing on jacobi-exascale,
# whose runs partition across the conservative pdes shards).
sweep-smoke:
	@$(GO) build -o /tmp/gat-sweep ./cmd/sweep
	@/tmp/gat-sweep -fig all -maxnodes 2 -iters 2 -j 1 > /tmp/gat-sweep-serial.txt
	@/tmp/gat-sweep -fig all -maxnodes 2 -iters 2 -j 8 > /tmp/gat-sweep-parallel.txt
	@cmp /tmp/gat-sweep-serial.txt /tmp/gat-sweep-parallel.txt
	@/tmp/gat-sweep -scenario jacobi-taper -maxnodes 36 -iters 2 -warmup 1 -j 1 > /tmp/gat-sweep-taper-serial.txt
	@/tmp/gat-sweep -scenario jacobi-taper -maxnodes 36 -iters 2 -warmup 1 -j 4 > /tmp/gat-sweep-taper-parallel.txt
	@cmp /tmp/gat-sweep-taper-serial.txt /tmp/gat-sweep-taper-parallel.txt
	@/tmp/gat-sweep -scenario jacobi-taper -maxnodes 36 -iters 2 -warmup 1 -j 4 -shards 4 > /tmp/gat-sweep-taper-sharded.txt
	@cmp /tmp/gat-sweep-taper-serial.txt /tmp/gat-sweep-taper-sharded.txt
	@/tmp/gat-sweep -scenario jacobi-exascale -maxnodes 1024 -iters 2 -warmup 1 -j 1 > /tmp/gat-sweep-exa-serial.txt
	@/tmp/gat-sweep -scenario jacobi-exascale -maxnodes 1024 -iters 2 -warmup 1 -j 4 -shards 4 > /tmp/gat-sweep-exa-sharded.txt
	@cmp /tmp/gat-sweep-exa-serial.txt /tmp/gat-sweep-exa-sharded.txt
	@rm -rf /tmp/gat-sweep-cache
	@/tmp/gat-sweep -fig all -maxnodes 2 -iters 2 -j 4 -cache-dir /tmp/gat-sweep-cache > /tmp/gat-sweep-cold.txt
	@/tmp/gat-sweep -fig all -maxnodes 2 -iters 2 -j 4 -cache-dir /tmp/gat-sweep-cache -v \
		> /tmp/gat-sweep-warm.txt 2> /tmp/gat-sweep-warm-log.txt
	@cmp /tmp/gat-sweep-serial.txt /tmp/gat-sweep-cold.txt
	@cmp /tmp/gat-sweep-cold.txt /tmp/gat-sweep-warm.txt
	@grep -Eq "\([0-9]+ runs: 0 simulated, [0-9]+ from store, 0 resumed\)" /tmp/gat-sweep-warm-log.txt || \
		{ echo "sweep-smoke: warm cache run still simulated:"; tail -1 /tmp/gat-sweep-warm-log.txt; exit 1; }
	@/tmp/gat-sweep -fig all -maxnodes 2 -iters 2 -j 4 -cache-dir /tmp/gat-sweep-cache -json > $(SMOKE_OUT)/sweep-smoke.json
	@echo "sweep-smoke: parallel, sharded and warm-cache output byte-identical to serial; warm run simulated 0 runs"

# Sweep-as-a-service smoke: a sweepd on a random port backs a cold
# `sweep -remote` run, the warm rerun simulates nothing and emits
# byte-identical figures (every entry comes back over HTTP), and the
# /v1/watch stream replays at least one published run line. Server
# stderr lands in $(SMOKE_OUT)/sweepd-smoke.log so CI can upload it
# with the other smoke artifacts.
sweepd-smoke:
	@$(GO) build -o /tmp/gat-sweep ./cmd/sweep
	@$(GO) build -o /tmp/gat-sweepd ./cmd/sweepd
	@rm -rf /tmp/gat-sweepd-dir /tmp/gat-sweepd-addr
	@/tmp/gat-sweepd -dir /tmp/gat-sweepd-dir -addr 127.0.0.1:0 -addr-file /tmp/gat-sweepd-addr \
		2> $(SMOKE_OUT)/sweepd-smoke.log & \
	pid=$$!; trap 'kill $$pid 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do [ -s /tmp/gat-sweepd-addr ] && break; sleep 0.1; done; \
	[ -s /tmp/gat-sweepd-addr ] || { echo "sweepd-smoke: server never wrote its address"; exit 1; }; \
	addr=$$(cat /tmp/gat-sweepd-addr); \
	/tmp/gat-sweep -fig all -maxnodes 2 -iters 2 -j 4 -remote http://$$addr -sweep-id smoke \
		> /tmp/gat-sweepd-cold.txt || exit 1; \
	/tmp/gat-sweep -fig all -maxnodes 2 -iters 2 -j 4 -remote http://$$addr -sweep-id smoke -v \
		> /tmp/gat-sweepd-warm.txt 2> /tmp/gat-sweepd-warm-log.txt || exit 1; \
	cmp /tmp/gat-sweepd-cold.txt /tmp/gat-sweepd-warm.txt || \
		{ echo "sweepd-smoke: warm remote sweep differs from cold"; exit 1; }; \
	grep -Eq "\([0-9]+ runs: 0 simulated, [0-9]+ from store, 0 resumed\)" /tmp/gat-sweepd-warm-log.txt || \
		{ echo "sweepd-smoke: warm remote run still simulated:"; tail -1 /tmp/gat-sweepd-warm-log.txt; exit 1; }; \
	curl -s -N --max-time 10 http://$$addr/v1/watch/smoke | head -n 1 > /tmp/gat-sweepd-watch.txt; \
	grep -q '"figure"' /tmp/gat-sweepd-watch.txt || \
		{ echo "sweepd-smoke: watch stream produced no run line"; cat /tmp/gat-sweepd-watch.txt; exit 1; }
	@echo "sweepd-smoke: warm remote sweep served entirely from sweepd, byte-identical; watch stream live"

# Scenario registry smoke: the registry must list (with the topology
# and routing columns), a non-Summit, non-Jacobi composition must run
# end to end, one tapered-fabric run must emit its link-utilization
# provenance in the v3 JSON, and one adaptive-routing run must emit its
# routing provenance.
scenario-smoke:
	@$(GO) build -o /tmp/gat-sweep ./cmd/sweep
	@/tmp/gat-sweep -list | grep -q minimd-frontier
	@/tmp/gat-sweep -list | grep -q "dragonfly 2:1"
	@/tmp/gat-sweep -list | grep -q adaptive
	@/tmp/gat-sweep -list | grep -q slimfly
	@/tmp/gat-sweep -scenario minimd-frontier -maxnodes 2 -iters 4 -j 2 -json > $(SMOKE_OUT)/scenario-smoke.json
	@/tmp/gat-sweep -scenario scaling -app ring -machine perlmutter -maxnodes 2 -iters 4 > /dev/null
	@/tmp/gat-sweep -scenario jacobi-taper -maxnodes 36 -iters 2 -warmup 1 -j 4 -json > $(SMOKE_OUT)/taper-smoke.json
	@grep -q max_link_util $(SMOKE_OUT)/taper-smoke.json || \
		{ echo "scenario-smoke: tapered run reported no fabric-link utilization"; exit 1; }
	@/tmp/gat-sweep -scenario jacobi-adaptive-vs-minimal -maxnodes 48 -iters 2 -warmup 1 -j 4 -json > $(SMOKE_OUT)/routing-smoke.json
	@grep -q '"routing"' $(SMOKE_OUT)/routing-smoke.json || \
		{ echo "scenario-smoke: adaptive-routing run reported no routing provenance"; exit 1; }
	@echo "scenario-smoke: registry lists; non-Summit, tapered-fabric and adaptive-routing scenarios run"

# Claims smoke: all seven C1-C7 checks must execute and report at
# reduced scale; their verdicts are advisory there (-smoke exits 0).
claims-smoke:
	@$(GO) build -o /tmp/gat-claims ./cmd/claims
	@/tmp/gat-claims -maxnodes 2 -iters 2 -smoke > /tmp/gat-claims-smoke.txt
	@for c in C1 C2 C3 C4 C5 C6 C7; do \
		grep -q "^$$c " /tmp/gat-claims-smoke.txt || \
			{ echo "claims-smoke: claim $$c did not report"; cat /tmp/gat-claims-smoke.txt; exit 1; }; \
	done
	@echo "claims-smoke: all 7 claims executed and reported"

bench-queue:
	$(GO) test -run xxx -bench BenchmarkEventQueue -benchtime 1000000x .

# Engine hot-path benchmarks, recorded into the gat-bench-v1 trajectory
# file. BENCH_LABEL selects the slot to (re)record; the committed
# BENCH_PR13.json is the current reference (BENCH_PR2.json stays as the
# 4-ary-heap-era trajectory, BENCH_PR7.json as the pre-pdes one,
# BENCH_PR8.json as the pre-allocation-free-Charm one and
# BENCH_PR12.json as the last calendar-queue one), so the default
# refreshes "after" and prints the delta table. -count=6
# interleaves full suite repetitions, so each benchmark's median spans
# the whole run rather than one hot stretch; -timeout=0 drops the test
# framework's watchdog timer, whose periodic host-clock reads otherwise
# tax every goroutine switch — the sweep binaries run without one, so
# benchmarks should too.
BENCH_PATTERN := 'BenchmarkZeroDelayLane|BenchmarkSignalFanout|BenchmarkProcPingPong|BenchmarkJacobiStep|BenchmarkJacobiStepCharm|BenchmarkEventQueue|BenchmarkPDESWindowMerge'
BENCH_LABEL ?= after
# The bench output lands in a temp file first so a mid-run benchmark
# failure aborts before benchjson can overwrite the trajectory file
# with partial medians.
bench:
	@$(GO) build -o /tmp/gat-benchjson ./cmd/benchjson
	$(GO) test -run xxx -bench $(BENCH_PATTERN) -benchmem -count=6 -timeout=0 . > /tmp/gat-bench-out.txt
	/tmp/gat-benchjson -label $(BENCH_LABEL) -out BENCH_PR13.json -in /tmp/gat-bench-out.txt

# Bench regression gate: re-measure the headline hot-path benchmarks
# (medians over -count=3) and fail when any is >25% slower than the
# committed "after" trajectory. JacobiStep (MPI-D), JacobiStepCharm
# (Charm-D) and ZeroDelayLane are the end-to-end and lane headliners; the
# depth16k hold keeps the timed-event heap honest against its own
# recorded number. The comparison is absolute ns/op against numbers
# recorded on whatever host last ran `make bench`, so it is only a real
# gate on comparable hardware; CI runs it informationally
# (continue-on-error) because a shared runner's verdict tracks the
# hardware gap as much as the code. Re-baseline with `make bench` when
# the reference host changes.
bench-check:
	@$(GO) build -o /tmp/gat-benchjson ./cmd/benchjson
	$(GO) test -run xxx -bench 'BenchmarkJacobiStep$$|BenchmarkJacobiStepCharm$$|BenchmarkJacobiStepSharded$$|BenchmarkZeroDelayLane$$|BenchmarkEventQueue/depth16k$$|BenchmarkPDESWindowMerge$$' -benchmem -count=3 -timeout=0 . > /tmp/gat-bench-check.txt
	/tmp/gat-benchjson -in /tmp/gat-bench-check.txt -check BENCH_PR13.json -against after \
		-require BenchmarkJacobiStep,BenchmarkJacobiStepCharm,BenchmarkJacobiStepSharded,BenchmarkZeroDelayLane,BenchmarkEventQueue/depth16k,BenchmarkPDESWindowMerge -max-regress 25

# claims-smoke is not part of check: CI runs it as its own job, and
# doubling it into the matrix legs would just re-run identical work.
check: build vet fmt-check lint test benchmark-check sweep-smoke sweepd-smoke scenario-smoke

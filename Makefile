# Tier-1 verification plus lint and smoke targets. `make check` runs
# everything CI needs in one command.

GO ?= go
# Smoke targets drop their machine-readable JSON reports here; CI
# points this at a workspace directory and uploads it as an artifact.
SMOKE_OUT ?= /tmp

.PHONY: all build test vet fmt-check lint benchmark-check check sweep-smoke sweepd-smoke scenario-smoke claims-smoke fuzz traffic-cover traffic-cover-check traffic-cover-baseline bench-queue bench bench-check

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

# A fast end-to-end sweep, four ways byte-identical: parallel vs the
# serial reference path, a warm content-addressed cache vs the cold
# run that filled it, and a -resume from the sweep's own -json report
# — with the warm and the resumed runs simulating nothing (the
# "[0-9]* simulated" provenance line comes from the run counter). The
# same report re-tagged gat-sweep-v2 must be refused, naming the tag.
# The tapered-fabric scenario gets the same serial-vs-parallel gate:
# fabric link contention must not perturb deterministic reassembly —
# and -shards 4 layered on top must still reproduce the serial bytes
# (a no-op on the per-GPU engine, the real thing on jacobi-exascale,
# whose runs partition across the conservative pdes shards, here at
# 1,024, 2,048 and 4,096 nodes, so at three partition sizes).
# jacobi-exascale gets the same gate at -shards 3 too, which splits its
# 64, 128 and 256 dragonfly groups unevenly.
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
	@/tmp/gat-sweep -scenario jacobi-exascale -maxnodes 4096 -iters 2 -warmup 1 -j 1 > /tmp/gat-sweep-exa-serial.txt
	@/tmp/gat-sweep -scenario jacobi-exascale -maxnodes 4096 -iters 2 -warmup 1 -j 4 -shards 4 > /tmp/gat-sweep-exa-sharded.txt
	@cmp /tmp/gat-sweep-exa-serial.txt /tmp/gat-sweep-exa-sharded.txt
	@/tmp/gat-sweep -scenario jacobi-exascale -maxnodes 4096 -iters 2 -warmup 1 -j 4 -shards 3 > /tmp/gat-sweep-exa-sharded3.txt
	@cmp /tmp/gat-sweep-exa-serial.txt /tmp/gat-sweep-exa-sharded3.txt
	@rm -rf /tmp/gat-sweep-cache
	@/tmp/gat-sweep -fig all -maxnodes 2 -iters 2 -j 4 -cache-dir /tmp/gat-sweep-cache > /tmp/gat-sweep-cold.txt
	@/tmp/gat-sweep -fig all -maxnodes 2 -iters 2 -j 4 -cache-dir /tmp/gat-sweep-cache -v \
		> /tmp/gat-sweep-warm.txt 2> /tmp/gat-sweep-warm-log.txt
	@cmp /tmp/gat-sweep-serial.txt /tmp/gat-sweep-cold.txt
	@cmp /tmp/gat-sweep-cold.txt /tmp/gat-sweep-warm.txt
	@grep -Eq "\([0-9]+ runs: 0 simulated, [0-9]+ from store, 0 resumed\)" /tmp/gat-sweep-warm-log.txt || \
		{ echo "sweep-smoke: warm cache run still simulated:"; tail -1 /tmp/gat-sweep-warm-log.txt; exit 1; }
	@/tmp/gat-sweep -fig all -maxnodes 2 -iters 2 -j 4 -cache-dir /tmp/gat-sweep-cache -json > $(SMOKE_OUT)/sweep-smoke.json
	@/tmp/gat-sweep -fig all -maxnodes 2 -iters 2 -j 4 -resume $(SMOKE_OUT)/sweep-smoke.json -v \
		> /tmp/gat-sweep-resumed.txt 2> /tmp/gat-sweep-resumed-log.txt
	@cmp /tmp/gat-sweep-serial.txt /tmp/gat-sweep-resumed.txt
	@grep -Eq "\(([0-9]+) runs: 0 simulated, 0 from store, \1 resumed\)" /tmp/gat-sweep-resumed-log.txt || \
		{ echo "sweep-smoke: resume from the sweep's own report still simulated:"; tail -2 /tmp/gat-sweep-resumed-log.txt; exit 1; }
	@sed 's/"gat-sweep-v3"/"gat-sweep-v2"/' $(SMOKE_OUT)/sweep-smoke.json > /tmp/gat-sweep-smoke-v2.json
	@if /tmp/gat-sweep -fig all -maxnodes 2 -iters 2 -resume /tmp/gat-sweep-smoke-v2.json > /dev/null 2> /tmp/gat-sweep-v2-log.txt; then \
		echo "sweep-smoke: -resume accepted a gat-sweep-v2 report"; exit 1; fi
	@grep -q gat-sweep-v2 /tmp/gat-sweep-v2-log.txt || \
		{ echo "sweep-smoke: the v2 refusal does not name the schema:"; cat /tmp/gat-sweep-v2-log.txt; exit 1; }
	@echo "sweep-smoke: parallel, sharded, warm-cache and resumed output byte-identical to serial; warm and resumed runs simulated 0 runs; a v2 report is refused"

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
# end to end one step past the load balancer's first run, without a
# size warning and with LoadBalanced differing from Static at both node
# counts, one tapered-fabric run must emit its link-utilization
# provenance in the v3 JSON, one adaptive-routing run must emit its
# routing provenance, and cmd/jacobi3d must run every variant and write
# a non-empty -cpuprofile.
scenario-smoke:
	@$(GO) build -o /tmp/gat-sweep ./cmd/sweep
	@$(GO) build -o /tmp/gat-jacobi3d ./cmd/jacobi3d
	@/tmp/gat-sweep -list | grep -q minimd-frontier
	@/tmp/gat-sweep -list | grep -q "dragonfly 2:1"
	@/tmp/gat-sweep -list | grep -q adaptive
	@/tmp/gat-sweep -list | grep -q slimfly
	@/tmp/gat-sweep -scenario minimd-frontier -maxnodes 2 -iters 5 -j 2 -json \
		> $(SMOKE_OUT)/scenario-smoke.json 2> /tmp/gat-minimd-smoke-log.txt
	@! grep "sweep: warning:" /tmp/gat-minimd-smoke-log.txt || \
		{ echo "scenario-smoke: minimd-frontier ran undersized"; exit 1; }
	@/tmp/gat-sweep -scenario minimd-frontier -maxnodes 2 -iters 5 -j 2 -csv > /tmp/gat-minimd-smoke.csv
	@awk -F, '$$2 == "Static" { s[$$3] = $$4 } $$2 == "LoadBalanced" { lb[$$3] = $$4 } \
		END { for (x in s) { n++; if (s[x] == lb[x]) same = 1 } exit !(n == 2 && !same) }' /tmp/gat-minimd-smoke.csv || \
		{ echo "scenario-smoke: minimd-frontier LoadBalanced does not differ from Static at both node counts:"; \
		cat /tmp/gat-minimd-smoke.csv; exit 1; }
	@/tmp/gat-sweep -scenario scaling -app ring -machine perlmutter -maxnodes 2 -iters 4 > /dev/null
	@/tmp/gat-sweep -scenario jacobi-taper -maxnodes 36 -iters 2 -warmup 1 -j 4 -json > $(SMOKE_OUT)/taper-smoke.json
	@grep -q max_link_util $(SMOKE_OUT)/taper-smoke.json || \
		{ echo "scenario-smoke: tapered run reported no fabric-link utilization"; exit 1; }
	@/tmp/gat-sweep -scenario jacobi-adaptive-vs-minimal -maxnodes 48 -iters 2 -warmup 1 -j 4 -json > $(SMOKE_OUT)/routing-smoke.json
	@grep -q '"routing"' $(SMOKE_OUT)/routing-smoke.json || \
		{ echo "scenario-smoke: adaptive-routing run reported no routing provenance"; exit 1; }
	@for v in mpi-h mpi-d charm-h charm-d; do \
		/tmp/gat-jacobi3d -variant $$v -nodes 2 -iters 2 > /tmp/gat-jacobi3d-$$v.txt || \
			{ echo "scenario-smoke: jacobi3d -variant $$v failed"; exit 1; }; \
		grep -q '^time/iter' /tmp/gat-jacobi3d-$$v.txt || \
			{ echo "scenario-smoke: jacobi3d -variant $$v printed no time/iter"; exit 1; }; \
	done
	@rm -f /tmp/gat-jacobi3d-cpu.pprof
	@/tmp/gat-jacobi3d -variant charm-d -nodes 2 -iters 2 -cpuprofile /tmp/gat-jacobi3d-cpu.pprof > /dev/null
	@test -s /tmp/gat-jacobi3d-cpu.pprof || \
		{ echo "scenario-smoke: jacobi3d -cpuprofile wrote an empty profile"; exit 1; }
	@echo "scenario-smoke: registry lists; non-Summit (load balancing differs from static), tapered-fabric and adaptive-routing scenarios run; jacobi3d runs every variant and writes a CPU profile"

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

# Fuzz targets, each for a bounded 20 s. FuzzTimedOrder runs random
# programs of timed, zero-delay and nested pushes and pops on the engine
# against a sorted-slice reference of (time, seq) order. FuzzPDESOrder
# runs random LP programs on pdes at 1, 2 and 3 shards against a
# reference that always delivers its (time, destination, source, seq)
# minimum, and checks every LP's delivery log. FuzzExaSetup builds the
# exascale LP model's static state on random grids, node counts and
# machines, per shape and per node, and requires both to agree.
# FuzzChannelMatch interleaves Channel sends and receives from both
# endpoints over a few tags, ready signals firing before or after the
# match, against a reference of one FIFO per (destination, tag).
# FuzzCharmBound runs Charm-H and Charm-D at 1-2 nodes and ODF 1-4 to
# completion and again bounded near the full TimePerIter, and requires
# the bounded run to stop exactly when it cannot beat its bound and
# otherwise to return the full run's metrics. FuzzConfigValidate edits
# every registered machine profile's float fields with arbitrary bits,
# NaN and Inf included, and requires any configuration Validate passes
# to build, move 1 MiB and run a kernel without panicking.
# FuzzStoreGet reads arbitrary bytes filed under a run key and requires
# a hit to carry the cache schema and that key; FuzzReadJSON parses
# arbitrary sweep reports and indexes them for -resume, neither of
# which may panic. A failing input lands in the package's
# testdata/fuzz/ and replays under plain `go test` once committed.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzTimedOrder$$' -fuzztime 20s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzPDESOrder$$' -fuzztime 20s ./internal/pdes
	$(GO) test -run '^$$' -fuzz '^FuzzExaSetup$$' -fuzztime 20s ./internal/jacobi
	$(GO) test -run '^$$' -fuzz '^FuzzChannelMatch$$' -fuzztime 20s ./internal/comm
	$(GO) test -run '^$$' -fuzz '^FuzzCharmBound$$' -fuzztime 20s ./internal/jacobi
	$(GO) test -run '^$$' -fuzz '^FuzzConfigValidate$$' -fuzztime 20s ./internal/machine
	$(GO) test -run '^$$' -fuzz '^FuzzStoreGet$$' -fuzztime 20s ./internal/sweep/store
	$(GO) test -run '^$$' -fuzz '^FuzzReadJSON$$' -fuzztime 20s ./internal/sweep

# Traffic coverage: which functions under internal/ no workload runs.
# Builds cmd/sweep, cmd/jacobi3d and cmd/claims with plain -cover (with
# -coverpkg=./internal/... Go 1.24 wrote no counter files), drives
# every figure and ablation, every extra scenario, the scaling scenario
# on every machine profile, a cached, CSV and resumed sweep, each
# cmd/jacobi3d variant and flag, and the claims smoke with GOCOVERDIR
# set, then prints the gat/internal/... functions that ran 0.0 % and
# their count. Extras run at 48 nodes, the largest per-GPU smoke size
# (three dragonfly groups, two Summit pods), jacobi-exascale at its
# smoke size of 1,024 nodes on 2 shards, and minimd-lb at its default
# 12 steps, since its rebalancer first runs at step 4. `sweep -remote`
# needs a running sweepd and is not driven, so the remote client lists
# as unrun. `make traffic-cover-check` gates the list against a
# committed baseline.
COVER_OUT := /tmp/gat-traffic-cover
traffic-cover:
	@rm -rf $(COVER_OUT) && mkdir -p $(COVER_OUT)/data
	@for c in sweep jacobi3d claims; do $(GO) build -cover -o $(COVER_OUT)/$$c ./cmd/$$c || exit 1; done
	@export GOCOVERDIR=$(COVER_OUT)/data; set -e; \
	sw=$(COVER_OUT)/sweep; j3=$(COVER_OUT)/jacobi3d; \
	$$sw -fig all -maxnodes 4 -iters 2 -warmup 1 > /dev/null; \
	$$sw -fig ablations -maxnodes 4 -iters 2 -warmup 1 > /dev/null; \
	for s in $$($$sw -list | awk '$$2 == "extra" { print $$1 }'); do \
		$$sw -scenario $$s -maxnodes 48 -iters 2 -warmup 1 > /dev/null; \
	done; \
	$$sw -scenario minimd-lb -maxnodes 4 > /dev/null; \
	$$sw -scenario jacobi-exascale -maxnodes 1024 -iters 2 -warmup 1 -shards 2 > /dev/null; \
	for p in $$($$sw -list | awk '/^ *PROFILE/ { p = 1; next } p && NF { print $$1 }'); do \
		$$sw -scenario scaling -machine $$p -maxnodes 48 -iters 2 -warmup 1 > /dev/null; \
	done; \
	$$sw -scenario scaling -app ring -machine perlmutter -maxnodes 2 -iters 4 > /dev/null; \
	$$sw -fig fig7a -maxnodes 2 -iters 2 -cache-dir $(COVER_OUT)/cache -json > $(COVER_OUT)/report.json; \
	$$sw -fig fig7a -maxnodes 2 -iters 2 -cache-dir $(COVER_OUT)/cache -csv -explain > /dev/null 2>&1; \
	$$sw -fig fig7a -maxnodes 2 -iters 2 -resume $(COVER_OUT)/report.json -v > /dev/null 2>&1; \
	for v in mpi-h mpi-d charm-h charm-d; do $$j3 -variant $$v -nodes 2 -iters 2 > /dev/null; done; \
	for f in A B C; do $$j3 -variant charm-d -nodes 2 -iters 2 -odf 2 -fusion $$f > /dev/null; done; \
	$$j3 -variant charm-d -nodes 2 -iters 2 -odf 2 -graphs > /dev/null; \
	$$j3 -variant charm-d -nodes 2 -iters 2 -odf 2 -fusion C -graphs > /dev/null; \
	for v in charm-h charm-d; do $$j3 -variant $$v -nodes 2 -iters 2 -before-opts -residual 1 > /dev/null; done; \
	for v in mpi-h mpi-d; do $$j3 -variant $$v -nodes 2 -iters 2 -overlap -residual 1 > /dev/null; done; \
	$$j3 -variant charm-d -nodes 2 -iters 2 -trace > /dev/null; \
	$(COVER_OUT)/claims -maxnodes 2 -iters 2 -smoke > /dev/null
	@$(GO) tool covdata func -i $(COVER_OUT)/data | \
		awk '$$1 ~ /^gat\/internal\// && $$NF == "0.0%"' > $(COVER_OUT)/unrun.txt
	@cat $(COVER_OUT)/unrun.txt
	@echo "traffic-cover: $$(wc -l < $(COVER_OUT)/unrun.txt) functions under gat/internal/ never ran (list: $(COVER_OUT)/unrun.txt)"

# Dead-code ratchet: traffic-cover's list as "file function" lines, line
# numbers and percentages dropped, must equal the committed baseline. A
# function that joins the list is code that no workload runs, so the
# check fails with the diff. One that leaves it (now run, or deleted)
# fails too, naming the command that rewrites the baseline, so the file
# always lists today's unrun functions.
COVER_BASELINE := traffic-cover-baseline.txt
COVER_NAMES = awk '{ sub(/:[0-9]+:$$/, "", $$1); print $$1, $$2 }' $(COVER_OUT)/unrun.txt | LC_ALL=C sort
traffic-cover-check: traffic-cover
	@$(COVER_NAMES) > $(COVER_OUT)/unrun-names.txt
	@LC_ALL=C comm -13 $(COVER_BASELINE) $(COVER_OUT)/unrun-names.txt > $(COVER_OUT)/joined.txt
	@if [ -s $(COVER_OUT)/joined.txt ]; then \
		echo "traffic-cover-check: no workload runs these functions, which $(COVER_BASELINE) does not list:"; \
		diff -u $(COVER_BASELINE) $(COVER_OUT)/unrun-names.txt; exit 1; fi
	@if ! cmp -s $(COVER_BASELINE) $(COVER_OUT)/unrun-names.txt; then \
		echo "traffic-cover-check: these functions left the list of unrun code:"; \
		diff -u $(COVER_BASELINE) $(COVER_OUT)/unrun-names.txt; \
		echo "rewrite the baseline with: make traffic-cover-baseline"; exit 1; fi
	@echo "traffic-cover-check: the $$(wc -l < $(COVER_BASELINE)) unrun functions match $(COVER_BASELINE)"

traffic-cover-baseline: traffic-cover
	@$(COVER_NAMES) > $(COVER_BASELINE)
	@echo "traffic-cover-baseline: wrote $$(wc -l < $(COVER_BASELINE)) functions to $(COVER_BASELINE)"

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

GO ?= go

.PHONY: check fmt build test vet race replay-race bench bench-smoke perfbench-smoke fuzz-smoke chaos-smoke service-smoke bench-service bench-dispatch paper

# The tier-1 gate plus formatting and the concurrency-sensitive packages
# under the race detector. Run before committing.
check: fmt build vet test race

# Fail when any Go file is not gofmt-clean (gofmt -l prints its name).
fmt:
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Concurrency-sensitive packages under the race detector: the event
# transport and the core profiler (its event counter is read from other
# goroutines mid-run), the probe API (one session per goroutine), the VM
# (spawn/join thread goroutines), the experiments worker pool that the
# snapshot registry runs inside, the trace subsystem (parallel replay
# workers; the store's concurrent-record reservation), the daemon, the
# distributed dispatcher (lease timers, breaker state, and worker keyed
# locks race against heartbeat streams), the chaos sweeps (the daemon and
# distributed targets crash workers and revoke leases mid-stream), and
# the root package (the events/paths equivalence suite and the threaded
# transport-equivalence gate, which runs ≥2 concurrent per-thread
# producers, each with its own transport). Vet runs first so the leg is
# self-contained in CI.
race:
	$(GO) vet ./...
	$(GO) test -race . ./internal/events/... ./internal/core ./internal/vm ./internal/experiments/... ./internal/trace/... ./internal/service ./internal/dispatch ./internal/chaos ./probe

# The parallel-replay surface under the race detector, repeated: worker
# fan-out, chunk merging, cancellation, and the fleet differ are exactly
# the code where a rare interleaving hides, so this leg runs them -count=3.
replay-race:
	$(GO) test -race -count=3 -run 'ReplayParallel|ReplayRange|Fleet|ParallelMatches' . ./internal/trace/...

# Regenerate the machine-readable perf baselines (use -j 1 timings):
# BENCH_overhead.json (instrumentation overhead + memo ablation),
# BENCH_pipeline.json (event-transport configurations), and
# BENCH_replay.json (parallel trace replay + Merkle diff).
bench:
	$(GO) run ./cmd/paper -j 1 bench -out BENCH_overhead.json -pipeline-out BENCH_pipeline.json -replay-out BENCH_replay.json

# One-iteration pass over every Go micro-benchmark — a fast compile-and-run
# sanity check that the benchmarks themselves still work — followed by the
# regression gates: per-mode overhead (fail when paths-mode slowdown
# exceeds the recorded BENCH_overhead.json baseline by more than 1.5x) and
# parallel replay (fail when the parallel stream diverges from sequential,
# or is slower than sequential on a multi-core runner).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...
	$(GO) run ./cmd/paper -j 1 bench -check

# The repository benchmark's self-test. perfbench is a Go module of its
# own, so `make test` does not reach it: a short pass of every workload,
# traced and untraced, with every correctness check, and the printed
# metric names and units held to BENCHMARK.json.
perfbench-smoke:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Short live-fuzz legs over the decoder no-panic contracts: the trace
# reader must recover-or-refuse arbitrary bytes (v1 recovery scan and the
# v2 surface — checkpoints, range replay, parallel replay, range proofs),
# the checkpoint decoder must reject damage typed, and the path-counter
# decoder must reject arbitrary table/counter combinations without
# crashing or miscounting. The seed corpora also run as plain fixtures in
# `make test`. The FuzzReplayV2 leg caps input minimization at 100 runs:
# at the default 60 s, minimizing the first new-coverage input it finds
# outlasts the whole 10 s leg.
fuzz-smoke:
	$(GO) test -run Fuzz -fuzz='FuzzReplay$$' -fuzztime=10s ./internal/trace
	$(GO) test -run Fuzz -fuzz=FuzzReplayV2 -fuzztime=10s -fuzzminimizetime=100x ./internal/trace
	$(GO) test -run Fuzz -fuzz=FuzzCheckpointDecode -fuzztime=10s ./internal/trace
	$(GO) test -run Fuzz -fuzz=FuzzDecode -fuzztime=10s ./internal/pathdecode

# Seeded fault-injection sweeps of every chaos target under the race
# detector (see docs/FAULTS.md): the library's record → replay pipeline,
# the daemon's write path (intake, pool, persist), and distributed
# dispatch (worker crash / partition / slow worker / corrupt response
# through a daemon routing jobs to two worker HTTP servers). Every
# schedule must succeed, degrade deterministically, or fail with a typed
# fault class; a lost job, an untyped failure or an ingested damaged
# artifact exits non-zero.
chaos-smoke:
	$(GO) build -race -o /tmp/algoprof-chaos ./cmd/algoprof
	/tmp/algoprof-chaos chaos -target lib -seeds 32
	/tmp/algoprof-chaos chaos -target service -seeds 16
	/tmp/algoprof-chaos chaos -target dist -seeds 8
	rm -f /tmp/algoprof-chaos

# End-to-end daemon smoke (see docs/SERVICE.md): boot an in-process
# algoprofd on an ephemeral port, submit a job over HTTP, stream its NDJSON
# result, audit the persisted run (the same checks `algoprof verify` runs),
# byte-compare the returned profile against the library API, then a short
# loadgen where every job must terminate ok/degraded/typed-failed with
# zero lost. Then a short distributed benchmark with its -check gate (zero
# lost jobs and zero untyped failures in every crash leg) against a
# throwaway output file.
service-smoke:
	$(GO) run ./cmd/algoprofd smoke -jobs 60
	$(GO) run ./cmd/algoprofd distbench -jobs 12 -out /tmp/BENCH_dispatch_smoke.json -check
	rm -f /tmp/BENCH_dispatch_smoke.json

# Regenerate the committed BENCH_service.json baseline: a real daemon on a
# local port hammered with 1000 concurrent jobs across 4 tenants.
bench-service:
	$(GO) build -o /tmp/algoprofd-bench ./cmd/algoprofd
	/tmp/algoprofd-bench serve -addr 127.0.0.1:7171 -store /tmp/algoprofd-bench-store & \
	APD=$$!; sleep 1; \
	/tmp/algoprofd-bench loadgen -addr http://127.0.0.1:7171 -jobs 1000 -c 64 -tenants 4 -out BENCH_service.json -check; \
	RC=$$?; kill -TERM $$APD; wait $$APD 2>/dev/null; rm -rf /tmp/algoprofd-bench-store; exit $$RC

# Regenerate the committed BENCH_dispatch.json baseline: a crash-0/1/2
# leg each pushing a batch through the distributed dispatch stack while
# that many workers die abruptly mid-batch. The -check gate requires
# zero lost jobs and zero untyped failures in every leg.
bench-dispatch:
	$(GO) run ./cmd/algoprofd distbench -out BENCH_dispatch.json -check

# Regenerate every table and figure of the paper.
paper:
	$(GO) run ./cmd/paper all

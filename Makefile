GO ?= go

.PHONY: check fmt build test vet race bench bench-smoke perfbench-smoke fuzz-smoke chaos-smoke service-smoke paper

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
# (spawn/join thread goroutines), the daemon's job pool (experiments.Pool),
# the trace subsystem (the store's concurrent-record reservation; the
# fleet differ's per-core comparison workers), the daemon, the distributed
# dispatcher (lease timers, breaker state, and worker keyed locks race
# against heartbeat streams), the chaos sweeps (the daemon and distributed
# targets crash workers and revoke leases mid-stream), and the root
# package (the events/paths equivalence suite and the threaded
# transport-equivalence gate, which runs ≥2 concurrent per-thread
# producers, each with its own transport). Vet runs first so the leg is
# self-contained in CI.
race:
	$(GO) vet ./...
	$(GO) test -race . ./internal/events/... ./internal/core ./internal/vm ./internal/experiments/... ./internal/trace/... ./internal/service ./internal/dispatch ./internal/chaos ./probe

# Regenerate the five committed perf baselines from one build of the
# committed tree (`go build` stamps the commit into each file's header;
# `go run` would not): BENCH_overhead.json (instrumentation overhead +
# memo ablation), BENCH_pipeline.json (event-transport configurations) and
# BENCH_replay.json (sequential trace and profile replay, and the bytes the
# footer diff reads); BENCH_dispatch.json (crash-0/1/2 legs through the
# distributed dispatch stack); and BENCH_service.json (a real daemon on a
# local port hammered with 1000 concurrent jobs across 4 tenants). Both
# daemon benchmarks gate on zero lost jobs and zero untyped failures. The
# binaries and the daemon's store live in a temporary directory that the
# shell's EXIT trap removes.
bench:
	dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/paper" ./cmd/paper && \
	$(GO) build -o "$$dir/algoprofd" ./cmd/algoprofd && \
	"$$dir/paper" bench -out BENCH_overhead.json -pipeline-out BENCH_pipeline.json -replay-out BENCH_replay.json && \
	"$$dir/algoprofd" distbench -out BENCH_dispatch.json -check || exit $$?; \
	"$$dir/algoprofd" serve -addr 127.0.0.1:7171 -store "$$dir/store" & \
	APD=$$!; sleep 1; \
	"$$dir/algoprofd" loadgen -addr http://127.0.0.1:7171 -jobs 1000 -c 64 -tenants 4 -out BENCH_service.json -check; \
	RC=$$?; kill -TERM $$APD; wait $$APD 2>/dev/null; exit $$RC

# One-iteration pass over every Go micro-benchmark — a fast compile-and-run
# sanity check that the benchmarks themselves still work — followed by the
# regression gate on the profiler's own cost: fail when the median
# per-round events-mode over paths-mode time exceeds the events_over_paths
# median recorded in BENCH_overhead.json by more than 7%.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...
	$(GO) run ./cmd/paper bench -check

# The repository benchmark's self-test. perfbench is a Go module of its
# own, so `make test` does not reach it: a short pass of every workload,
# traced and untraced, with every correctness check, and the printed
# metric names and units held to BENCHMARK.json.
perfbench-smoke:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Short live-fuzz legs over the decoder no-panic contracts: the trace
# reader must recover-or-refuse arbitrary bytes (the recovery scan, v3's
# delta-coded entity ids, and the v2 surface — the Merkle footer, the
# range check, legacy checkpoint frames — seeded with v3 traces and the
# pinned v2 and v3 golden traces), and the path-counter decoder must reject
# arbitrary table/counter combinations without crashing or miscounting. The seed corpora also run
# as plain fixtures in `make test`. FuzzReplayProgram carries the trace
# contract through the profiler: decoded bytes replayed against a fixed
# program with the verifier on end in a profile or a typed error, with
# tables sized by the ids a trace names, not their values. The
# FuzzReplayV2 and FuzzReplayProgram legs cap input minimization at 100
# runs: at the default 60 s, minimizing the first new-coverage input
# found outlasts the whole 10 s leg.
fuzz-smoke:
	$(GO) test -run Fuzz -fuzz='FuzzReplay$$' -fuzztime=10s ./internal/trace
	$(GO) test -run Fuzz -fuzz=FuzzReplayV2 -fuzztime=10s -fuzzminimizetime=100x ./internal/trace
	$(GO) test -run Fuzz -fuzz=FuzzDecode -fuzztime=10s ./internal/pathdecode
	$(GO) test -run Fuzz -fuzz=FuzzReplayProgram -fuzztime=10s -fuzzminimizetime=100x .

# Seeded fault-injection sweeps of every chaos target under the race
# detector (see docs/FAULTS.md): the library's record → replay pipeline,
# the daemon's write path (intake, pool, persist), and distributed
# dispatch (worker crash / partition / slow worker / corrupt response
# through a daemon routing jobs to two worker HTTP servers). Every
# schedule must succeed, degrade deterministically, or fail with a typed
# fault class; a lost job, an untyped failure or an ingested damaged
# artifact exits non-zero. The race binary lives in a private temporary
# directory that the shell's EXIT trap removes whatever the outcome.
chaos-smoke:
	dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -race -o "$$dir/algoprof" ./cmd/algoprof && \
	"$$dir/algoprof" chaos -target lib -seeds 32 && \
	"$$dir/algoprof" chaos -target service -seeds 16 && \
	"$$dir/algoprof" chaos -target dist -seeds 8

# End-to-end daemon smoke (see docs/SERVICE.md): boot an in-process
# algoprofd on an ephemeral port, submit a job over HTTP, stream its NDJSON
# result, audit the persisted run (the same checks `algoprof verify` runs),
# byte-compare the returned profile against the library API, do the same
# for an all_backends job, then a short loadgen where every job must
# terminate ok/degraded/typed-failed with zero lost. Then a short
# distributed benchmark with its -check gate (zero lost jobs and zero
# untyped failures in every crash leg) against a throwaway output file in
# a temporary directory that the shell's EXIT trap removes.
service-smoke:
	dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/algoprofd smoke -jobs 60 && \
	$(GO) run ./cmd/algoprofd distbench -jobs 12 -out "$$dir/BENCH_dispatch_smoke.json" -check

# Regenerate every table and figure of the paper.
paper:
	$(GO) run ./cmd/paper all

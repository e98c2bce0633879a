package algoprof

import (
	"context"
	"io"

	"algoprof/internal/core"
	"algoprof/internal/mj/bytecode"
	"algoprof/internal/mj/compiler"
	"algoprof/internal/snapshot"
	"algoprof/internal/trace"
)

// Record profiles src exactly like Run while streaming the full event
// stream — including the heap journal offline replay needs — to w as a
// trace file. The returned profile is identical to a plain Run with the
// same Config. Programs that spawn threads need a per-thread trace
// destination and must use RecordSinkContext; without a sink a spawn
// fails the run with a typed VM error.
func Record(src string, cfg Config, w io.Writer, topts trace.WriterOptions) (*Profile, error) {
	return RecordSinkContext(context.Background(), src, cfg, w, topts, nil)
}

// RecordSinkContext is Record with cooperative cancellation (see
// RunContext) for programs that may spawn threads: w receives the main
// thread's trace, and sink opens one additional destination per spawned
// thread id. Each thread's event stream — its own heap journal included —
// is recorded by the thread's own trace writer, so per-thread traces
// replay independently and byte-identically; the run store names them
// trace-t<tid>.bin and lists the ids in the manifest. On cancellation the
// trace writer aborts, leaving a recognizable partial trace — a valid
// header and whole CRC-framed records, no index — that readers recover
// through the truncated-trace path.
func RecordSinkContext(ctx context.Context, src string, cfg Config, w io.Writer, topts trace.WriterOptions, sink ThreadTraceSink) (*Profile, error) {
	prog, err := compiler.CompileSource(src)
	if err != nil {
		return nil, err
	}
	return live(ctx, prog, cfg, w, topts, sink)
}

// ReplayProgram rebuilds a profile offline from a recorded trace: the
// reader's records drive the same profiler core the live run used, over a
// shadow heap reconstructed from the stream. With the Config the trace was
// recorded under, the resulting profile is byte-identical to the live one
// (program output and stdout are not part of the event stream; the run
// store carries those in its manifest). A recovered (truncated) trace
// replays tolerantly — the profiler force-closes whatever repetitions the
// torn tail left open and the profile is marked degraded — so a crashed
// recording still yields its prefix's profile. Deterministic limits
// (MaxEvents, MaxLiveBytes) apply during replay exactly as they did live,
// which keeps replay-equality for degraded runs.
func ReplayProgram(prog *bytecode.Program, cfg Config, r *trace.Reader) (*Profile, error) {
	return replay(context.Background(), prog, cfg, r, nil, 1)
}

// ReplayProgramParallel is ReplayProgram with cooperative cancellation,
// checked at every frame boundary, and with the trace's per-frame decode
// work fanned out over workers goroutines (≤ 0 means GOMAXPROCS). The
// profile is byte-identical to a sequential replay's: records are still
// bound and dispatched in recorded order on one shadow heap (see
// trace.Reader.ReplayParallel). v1 and truncated traces fall back to the
// sequential path, as does workers == 1.
func ReplayProgramParallel(ctx context.Context, prog *bytecode.Program, cfg Config, r *trace.Reader, workers int) (*Profile, error) {
	return replay(ctx, prog, cfg, r, nil, workers)
}

// ReplayProgramThreadsContext replays a threaded recording offline with
// cooperative cancellation: r drives the main thread's profiler and each
// entry of threadTraces (keyed by thread id) drives a profiler of its own
// — the same per-thread trees the live run built — before the report-time
// merge folds them together. With the recording's Config the result is
// byte-identical to the live threaded profile.
func ReplayProgramThreadsContext(ctx context.Context, prog *bytecode.Program, cfg Config, r *trace.Reader, threadTraces map[int]*trace.Reader) (*Profile, error) {
	return replay(ctx, prog, cfg, r, threadTraces, 1)
}

// ReplayProgramThreadsParallel is ReplayProgramThreadsContext with each
// trace's per-frame decode fanned out over workers goroutines. Traces are
// still replayed one at a time in thread-id order — parallelism is within
// a trace, ordering across traces is irrelevant to the merged report.
func ReplayProgramThreadsParallel(ctx context.Context, prog *bytecode.Program, cfg Config, r *trace.Reader, threadTraces map[int]*trace.Reader, workers int) (*Profile, error) {
	return replay(ctx, prog, cfg, r, threadTraces, workers)
}

// coreOptions maps the public Config to profiler-core options.
func coreOptions(cfg Config) core.Options {
	opts := core.Options{
		Criterion:    snapshot.Criterion(cfg.Criterion),
		SampleEvery:  cfg.SampleEvery,
		DisableMemo:  cfg.DisableMemo,
		MaxEvents:    cfg.Limits.MaxEvents,
		MaxLiveBytes: cfg.Limits.MaxLiveBytes,
	}
	if cfg.EagerIdentify {
		opts.Identify = core.EagerIdentify
	}
	if cfg.SizeStrategy == UniqueElements {
		opts.SizeStrategy = snapshot.UniqueElements
	}
	return opts
}

func seedOf(cfg Config) uint64 {
	if cfg.Seed == 0 {
		return 1
	}
	return cfg.Seed
}

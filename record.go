package algoprof

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"algoprof/internal/core"
	"algoprof/internal/events/pipeline"
	"algoprof/internal/instrument"
	"algoprof/internal/mj/bytecode"
	"algoprof/internal/mj/compiler"
	"algoprof/internal/snapshot"
	"algoprof/internal/trace"
	"algoprof/internal/verify"
	"algoprof/internal/vm"
)

// Record profiles src exactly like Run while streaming the full event
// stream — including the heap journal offline replay needs — to w as a
// trace file. The returned profile is identical to a plain Run with the
// same Config.
func Record(src string, cfg Config, w io.Writer, topts trace.WriterOptions) (*Profile, error) {
	return RecordContext(context.Background(), src, cfg, w, topts)
}

// RecordContext is Record with cooperative cancellation (see RunContext).
// On cancellation the trace writer aborts, leaving a recognizable partial
// trace — a valid header and whole CRC-framed records, no index — that
// readers recover through the truncated-trace path.
func RecordContext(ctx context.Context, src string, cfg Config, w io.Writer, topts trace.WriterOptions) (*Profile, error) {
	prog, err := compiler.CompileSource(src)
	if err != nil {
		return nil, err
	}
	return RecordProgramContext(ctx, prog, cfg, w, topts)
}

// RecordSinkContext is RecordContext for programs that may spawn
// threads: sink opens one trace destination per spawned thread id (see
// RecordProgramSinkContext).
func RecordSinkContext(ctx context.Context, src string, cfg Config, w io.Writer, topts trace.WriterOptions, sink ThreadTraceSink) (*Profile, error) {
	prog, err := compiler.CompileSource(src)
	if err != nil {
		return nil, err
	}
	return RecordProgramSinkContext(ctx, prog, cfg, w, topts, sink)
}

// RecordProgram is Record for an already compiled program.
func RecordProgram(prog *bytecode.Program, cfg Config, w io.Writer, topts trace.WriterOptions) (*Profile, error) {
	return RecordProgramContext(context.Background(), prog, cfg, w, topts)
}

// RecordProgramContext is RecordProgram with cooperative cancellation (see
// RecordContext). Programs that spawn threads need a per-thread trace
// destination and must use RecordProgramSinkContext; without a sink a
// spawn fails the run with a typed VM error.
func RecordProgramContext(ctx context.Context, prog *bytecode.Program, cfg Config, w io.Writer, topts trace.WriterOptions) (*Profile, error) {
	return RecordProgramSinkContext(ctx, prog, cfg, w, topts, nil)
}

// RecordProgramSinkContext is RecordProgramContext for programs that may
// spawn threads: w receives the main thread's trace, and sink opens one
// additional destination per spawned thread id. Each thread's event
// stream — its own heap journal included — is recorded by the thread's
// own trace writer, so per-thread traces replay
// independently and byte-identically; the run store names them
// trace-t<tid>.bin and lists the ids in the manifest.
func RecordProgramSinkContext(ctx context.Context, prog *bytecode.Program, cfg Config, w io.Writer, topts trace.WriterOptions, sink ThreadTraceSink) (*Profile, error) {
	if cfg.Mode == ModePaths {
		// The trace format carries the exact event stream; path counters
		// elide precisely the records replay needs. Record in events mode
		// and profile the trace under either mode's semantics offline.
		return nil, fmt.Errorf("algoprof: trace recording requires events mode (got mode %q)", cfg.Mode)
	}
	ins, err := instrument.Instrument(prog, instrument.Optimized)
	if err != nil {
		return nil, err
	}
	prof := core.NewProfiler(ins, coreOptions(cfg))

	// Recording routes events through a transport so the trace writer
	// taps the same stream the profiler consumes; the VM's journal
	// hook adds the entity births and element stores that replay needs to
	// rebuild the heap.
	tp := pipeline.New()
	tp.Add(prof, ins.Plan)
	if topts.MaxBytes == 0 {
		topts.MaxBytes = cfg.Limits.MaxTraceBytes
	}
	tw := trace.NewWriter(w, topts)
	tp.Add(tw, nil)
	var chk *verify.Checker
	if cfg.Verify {
		chk = verify.NewChecker()
		tp.Add(chk, nil)
	}
	pr := tp.Producer()

	threads := &threadSessions{ins: ins, cfg: cfg, sink: sink, topts: topts}

	vmCfg := vm.Config{
		Listener: pr,
		Plan:     ins.Plan,
		Journal:  pr,
		Seed:     seedOf(cfg),
		Input:    cfg.Input,
		MaxSteps: cfg.MaxSteps,
		Watchdog: watchdogFor(ctx, cfg.Limits, time.Now(), cfg.Watchdog),
	}
	if sink != nil {
		vmCfg.SpawnSession = threads.spawnSession
	}
	machine := vm.New(ins.Prog, vmCfg)
	pr.BindClock(&machine.InstrCount)
	extra, runErr := triageRunError(machine.Run())
	if runErr != nil && interrupted(runErr) {
		// Leave the partial trace on disk in its crash shape; the caller
		// keeps what replays and learns the run was cut short.
		if aerr := tw.Abort(); aerr != nil {
			runErr = fmt.Errorf("%w (trace abort: %v)", runErr, aerr)
		}
		return nil, salvage(func() *Profile {
			p, _ := finishProfile(prof, cfg, machine, true)
			if p != nil {
				_ = mergeThreadProfiles(threads, p, cfg, true)
			}
			return p
		}, runErr)
	}
	// The main trace carries the main thread's own instruction count;
	// spawned threads' traces carry theirs, and replay sums them back to
	// the live run's total.
	tw.SetInstructions(machine.InstrCount)
	if werr := tw.Close(); werr != nil && runErr == nil {
		runErr = werr
	}
	if runErr != nil {
		return nil, runErr
	}
	if tw.Truncated() {
		extra = append(extra, "max-trace-bytes")
	}
	p, err := finishProfile(prof, cfg, machine, chk != nil, extra...)
	if err != nil {
		return nil, err
	}
	if err := mergeThreadProfiles(threads, p, cfg, false); err != nil {
		return nil, err
	}
	if err := runVerify(chk, prof, false, true); err != nil {
		return nil, err
	}
	return p, nil
}

// ReplayProgram rebuilds a profile offline from a recorded trace: the
// reader's records drive the same profiler core the live run used, over a
// shadow heap reconstructed from the stream. With the Config the trace was
// recorded under, the resulting profile is byte-identical to the live one
// (program output and stdout are not part of the event stream; the run
// store carries those in its manifest).
func ReplayProgram(prog *bytecode.Program, cfg Config, r *trace.Reader) (*Profile, error) {
	return ReplayProgramContext(context.Background(), prog, cfg, r)
}

// ReplayProgramContext is ReplayProgram with cooperative cancellation: ctx
// is checked at every frame boundary. A recovered (truncated) trace
// replays tolerantly — the profiler force-closes whatever repetitions the
// torn tail left open and the profile is marked degraded — so a crashed
// recording still yields its prefix's profile. Deterministic limits
// (MaxEvents, MaxLiveBytes) apply during replay exactly as they did live,
// which keeps replay-equality for degraded runs.
func ReplayProgramContext(ctx context.Context, prog *bytecode.Program, cfg Config, r *trace.Reader) (*Profile, error) {
	return replayProgram(ctx, prog, cfg, r, r.ReplayContext)
}

// ReplayProgramParallel is ReplayProgramContext with the trace's per-frame
// decode work fanned out over workers goroutines (≤ 0 means GOMAXPROCS).
// The profile is byte-identical to a sequential replay's: records are still
// bound and dispatched in recorded order on one shadow heap (see
// trace.Reader.ReplayParallel). v1 and truncated traces fall back to the
// sequential path.
func ReplayProgramParallel(ctx context.Context, prog *bytecode.Program, cfg Config, r *trace.Reader, workers int) (*Profile, error) {
	return replayProgram(ctx, prog, cfg, r, func(ctx context.Context, dispatch func(*pipeline.Record)) error {
		return r.ReplayParallel(ctx, workers, dispatch)
	})
}

// replayStrategy turns one trace reader into a replay driver — sequential
// (Reader.ReplayContext) or frame-parallel (Reader.ReplayParallel).
type replayStrategy func(*trace.Reader) func(context.Context, func(*pipeline.Record)) error

// ReplayProgramThreadsContext replays a threaded recording offline: r
// drives the main thread's profiler and each entry of threadTraces (keyed
// by thread id) drives a profiler of its own — the same per-thread trees
// the live run built — before the report-time merge folds them together.
// With the recording's Config the result is byte-identical to the live
// threaded profile.
func ReplayProgramThreadsContext(ctx context.Context, prog *bytecode.Program, cfg Config, r *trace.Reader, threadTraces map[int]*trace.Reader) (*Profile, error) {
	return replayThreads(ctx, prog, cfg, r, threadTraces, func(tr *trace.Reader) func(context.Context, func(*pipeline.Record)) error {
		return tr.ReplayContext
	})
}

// ReplayProgramThreadsParallel is ReplayProgramThreadsContext with each
// trace's per-frame decode fanned out over workers goroutines. Traces are
// still replayed one at a time in thread-id order — parallelism is within
// a trace, ordering across traces is irrelevant to the merged report.
func ReplayProgramThreadsParallel(ctx context.Context, prog *bytecode.Program, cfg Config, r *trace.Reader, threadTraces map[int]*trace.Reader, workers int) (*Profile, error) {
	return replayThreads(ctx, prog, cfg, r, threadTraces, func(tr *trace.Reader) func(context.Context, func(*pipeline.Record)) error {
		return func(ctx context.Context, dispatch func(*pipeline.Record)) error {
			return tr.ReplayParallel(ctx, workers, dispatch)
		}
	})
}

// replayThreads replays the main trace through replayProgram, then each
// per-thread trace through its own profiler, and merges exactly as a live
// threaded run does.
func replayThreads(ctx context.Context, prog *bytecode.Program, cfg Config, r *trace.Reader, threadTraces map[int]*trace.Reader, strat replayStrategy) (*Profile, error) {
	p, err := replayProgram(ctx, prog, cfg, r, strat(r))
	if err != nil {
		return nil, err
	}
	if len(threadTraces) == 0 {
		return p, nil
	}
	ins, err := instrument.Instrument(prog, instrument.Optimized)
	if err != nil {
		return nil, err
	}
	tids := make([]int, 0, len(threadTraces))
	for tid := range threadTraces {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	ts := &threadSessions{ins: ins, cfg: cfg}
	var instrs uint64
	for _, tid := range tids {
		tr := threadTraces[tid]
		prof := core.NewProfiler(ins, coreOptions(cfg))
		tp := pipeline.New()
		tp.Add(prof, ins.Plan)
		var chk *verify.Checker
		if cfg.Verify {
			chk = verify.NewChecker()
			tp.Add(chk, nil)
		}
		if err := strat(tr)(ctx, tp.Dispatch); err != nil {
			return nil, fmt.Errorf("thread %d: %w", tid, err)
		}
		s := &threadSession{tid: tid, prof: prof, chk: chk}
		if tr.Stats().Truncated {
			s.openOK = true
			s.extraReasons = []string{"truncated-trace"}
		}
		ts.sessions = append(ts.sessions, s)
		instrs += tr.Stats().Instructions
	}
	if err := mergeThreadProfiles(ts, p, cfg, false); err != nil {
		return nil, err
	}
	p.Instructions += instrs
	return p, nil
}

// replayProgram drives one replay strategy (sequential or parallel) through
// the shared profiler/pipeline scaffolding.
func replayProgram(ctx context.Context, prog *bytecode.Program, cfg Config, r *trace.Reader, replay func(context.Context, func(*pipeline.Record)) error) (*Profile, error) {
	if cfg.Mode == ModePaths {
		return nil, fmt.Errorf("algoprof: trace replay requires events mode (got mode %q)", cfg.Mode)
	}
	ins, err := instrument.Instrument(prog, instrument.Optimized)
	if err != nil {
		return nil, err
	}
	prof := core.NewProfiler(ins, coreOptions(cfg))
	tp := pipeline.New()
	tp.Add(prof, ins.Plan)
	var chk *verify.Checker
	if cfg.Verify {
		chk = verify.NewChecker()
		tp.Add(chk, nil)
	}
	truncated := r.Stats().Truncated
	if err := replay(ctx, tp.Dispatch); err != nil {
		return nil, err
	}
	prof.Finish()
	if errs := prof.Errors(); len(errs) > 0 && !truncated && chk == nil {
		// With the verifier attached, profiler errors surface through it
		// instead, as typed corruption-class violations.
		return nil, fmt.Errorf("algoprof: internal profiling error: %w", errs[0])
	}
	p := FromProfilerWith(prof, cfg.GroupStrategy)
	p.Instructions = r.Stats().Instructions
	p.DegradedReasons = prof.DegradedReasons()
	if truncated {
		p.DegradedReasons = append(p.DegradedReasons, "truncated-trace")
	}
	p.Degraded = len(p.DegradedReasons) > 0
	if err := runVerify(chk, prof, truncated, true); err != nil {
		return nil, err
	}
	return p, nil
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

// finishProfile finalizes the core profiler and assembles the public
// profile with the machine's outputs attached. tolerant skips the
// internal-error check — used when salvaging an interrupted run, whose
// stream is unbalanced by construction. extra degraded-reasons (deadline,
// trace truncation) are appended after the profiler's own.
func finishProfile(prof *core.Profiler, cfg Config, machine *vm.VM, tolerant bool, extra ...string) (*Profile, error) {
	prof.Finish()
	if errs := prof.Errors(); len(errs) > 0 && !tolerant {
		return nil, fmt.Errorf("algoprof: internal profiling error: %w", errs[0])
	}
	p := FromProfilerWith(prof, cfg.GroupStrategy)
	p.Stdout = machine.Stdout
	p.Instructions = machine.TotalInstructions()
	p.raw.machine = machine
	for _, v := range machine.Output {
		p.Output = append(p.Output, v.String())
	}
	p.DegradedReasons = append(prof.DegradedReasons(), extra...)
	p.Degraded = len(p.DegradedReasons) > 0
	return p, nil
}

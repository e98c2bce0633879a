package algoprof

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"algoprof/internal/core"
	"algoprof/internal/events/pipeline"
	"algoprof/internal/instrument"
	"algoprof/internal/mj/bytecode"
	"algoprof/internal/trace"
	"algoprof/internal/verify"
	"algoprof/internal/vm"
)

// ThreadTraceSink opens one trace destination per spawned VM thread.
// Record-mode entry points call it from the spawning thread's goroutine
// the moment the thread is created, so implementations must be safe for
// concurrent calls. The returned writer is closed on the thread's own
// goroutine after its trace writer flushes.
type ThreadTraceSink func(tid int) (io.WriteCloser, error)

// session is one VM thread's profiling state: its own core profiler (its
// own repetition tree and snapshot registry) and the transport that fans
// the thread's stream out to the verifier and the trace writer when
// either rides along. Live runs build one per thread as it starts; replay
// builds one per recorded trace. No session is shared between threads.
type session struct {
	tid  int // 0 for the main thread
	prof *core.Profiler
	tp   *pipeline.Transport
	chk  *verify.Checker // non-nil when the run is verified
	tw   *trace.Writer   // non-nil when the thread is recorded
	// err is a failure outside the profiler (a thread's trace sink did not
	// open), surfaced when the session finishes. The thread still
	// profiles; only its trace is lost.
	err error
	// openOK excuses the unbalanced stream a truncated trace leaves;
	// reasons are degraded-reasons appended after the profiler's own.
	openOK  bool
	reasons []string
}

// newSession builds a thread's session: the transport feeds the profiler
// under the instrumentation plan, then tw when non-nil, then a verifier
// when cfg.Verify.
func newSession(ins *instrument.Instrumented, cfg Config, tid int, tw *trace.Writer) *session {
	s := &session{tid: tid, prof: core.NewProfiler(ins, coreOptions(cfg)), tp: pipeline.New(), tw: tw}
	s.tp.Add(s.prof, ins.Plan)
	if tw != nil {
		s.tp.Add(tw, nil)
	}
	if cfg.Verify {
		s.chk = verify.NewChecker()
		s.tp.Add(s.chk, nil)
	}
	return s
}

// wire returns the VM hookup for the session's thread. With nothing
// riding along the profiler itself is the listener, so plain runs keep
// their transport-free hot path. Otherwise the transport's producer takes
// the events and the heap journal — the entity births and element stores
// the verifier's shadow heap and replay need — stamped with the thread's
// instruction counter.
func (s *session) wire(ins *instrument.Instrumented) *vm.ThreadSession {
	ts := &vm.ThreadSession{Listener: s.prof, Plan: ins.Plan, NumSites: ins.NumSites()}
	if s.chk != nil || s.tw != nil {
		pr := s.tp.Producer()
		ts.Listener, ts.Journal, ts.BindClock = pr, pr, pr.BindClock
	}
	return ts
}

// finish closes the session's profiler and builds its thread's profile.
// tolerant (salvaging an interrupted run, whose stream is unbalanced by
// construction) checks nothing. Otherwise a lost trace fails the session,
// so do the profiler's own errors unless a verifier rides along (it
// reports them as typed violations) or openOK excuses them, and the
// verifier's post-run checks come last: end-of-stream balance,
// repetition-tree invariants, and — in events mode — stream-vs-tree
// agreement. Paths mode skips agreement: counted loops report iterations
// through decoded counters rather than LoopBack events, so the stream
// legitimately disagrees with the tree there (CheckPathDecode covers that
// gap against an events-mode run). A violation fails the session with a
// *verify.Error.
func (s *session) finish(cfg Config, tolerant bool) (*Profile, error) {
	var lost []string
	if s.err != nil {
		if !tolerant {
			return nil, s.err
		}
		lost = []string{"trace-lost"}
	}
	s.prof.Finish()
	if errs := s.prof.Errors(); len(errs) > 0 && s.chk == nil && !tolerant && !s.openOK {
		return nil, fmt.Errorf("algoprof: internal profiling error (thread %d): %w", s.tid, errs[0])
	}
	p := fromProfiler(s.prof, cfg.GroupStrategy)
	p.DegradedReasons = append(append(lost, s.prof.DegradedReasons()...), s.reasons...)
	p.Degraded = len(p.DegradedReasons) > 0
	if s.chk != nil && !tolerant {
		s.chk.Finish(s.openOK)
		s.chk.Add(verify.CheckTree(s.prof, s.openOK))
		if cfg.Mode != ModePaths {
			s.chk.Add(verify.AgreeStream(s.chk, s.prof))
		}
		if err := s.chk.Err(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// profileRun holds one execution's sessions: the main thread's, and one
// per spawned thread, registered as threads spawn (live) or as their
// traces replay.
type profileRun struct {
	ins  *instrument.Instrumented
	cfg  Config
	main *session
	// sink opens, and topts configures, each spawned thread's trace when
	// the run records.
	sink  ThreadTraceSink
	topts trace.WriterOptions

	mu      sync.Mutex
	threads []*session
}

// spawn implements vm.Config.SpawnSession. It is called from the
// spawning thread's goroutine, so registration is mutex-protected; the
// session it returns is used only by the new thread's goroutine.
func (r *profileRun) spawn(tid int) *vm.ThreadSession {
	var (
		wc      io.WriteCloser
		tw      *trace.Writer
		sinkErr error
	)
	if r.sink != nil {
		if wc, sinkErr = r.sink(tid); sinkErr == nil {
			tw = trace.NewWriter(wc, r.topts)
		}
	}
	s := newSession(r.ins, r.cfg, tid, tw)
	if sinkErr != nil {
		// SpawnSession cannot fail the spawn: remember the error and
		// surface it deterministically when the report is merged.
		s.err = fmt.Errorf("algoprof: thread %d trace sink: %w", tid, sinkErr)
	}
	r.mu.Lock()
	r.threads = append(r.threads, s)
	r.mu.Unlock()

	ts := s.wire(r.ins)
	if tw != nil {
		// Close runs on the thread's goroutine after it terminates: stamp
		// the thread's own instruction count and seal its trace.
		var clock *uint64
		bind := ts.BindClock
		ts.BindClock = func(c *uint64) { clock = c; bind(c) }
		ts.Close = func() error {
			tw.SetInstructions(*clock)
			err := tw.Close()
			if cerr := wc.Close(); err == nil {
				err = cerr
			}
			return err
		}
	}
	return ts
}

// finish builds the merged profile: the main thread's, then each spawned
// thread's in thread-id order — every tree analyzed on its own, so
// input-size attribution never mixes threads — with the threads'
// algorithms and degraded-reasons prefixed "t<tid>:" and all algorithms
// re-sorted by cost. A live run calls finish only after the VM's Run
// returned, which guarantees every thread has terminated and closed its
// session.
func (r *profileRun) finish(tolerant bool) (*Profile, error) {
	p, err := r.main.finish(r.cfg, tolerant)
	if err != nil || len(r.threads) == 0 {
		return p, err
	}
	sort.Slice(r.threads, func(i, j int) bool { return r.threads[i].tid < r.threads[j].tid })
	for _, s := range r.threads {
		tp, err := s.finish(r.cfg, tolerant)
		if err != nil {
			return nil, err
		}
		prefix := fmt.Sprintf("t%d:", s.tid)
		for _, a := range tp.Algorithms {
			a.Name = prefix + a.Name
			nodes := make([]string, len(a.Nodes))
			for i, n := range a.Nodes {
				nodes[i] = prefix + n
			}
			a.Nodes = nodes
			p.Algorithms = append(p.Algorithms, a)
		}
		for _, reason := range tp.DegradedReasons {
			p.DegradedReasons = append(p.DegradedReasons, prefix+reason)
		}
		p.raw.threadEvents += s.prof.EventCount()
	}
	p.Threads = len(r.threads)
	sort.SliceStable(p.Algorithms, func(i, j int) bool {
		return p.Algorithms[i].TotalSteps > p.Algorithms[j].TotalSteps
	})
	p.Degraded = len(p.DegradedReasons) > 0
	return p, nil
}

// live profiles prog under cfg: the one path behind Run and Record. With
// w non-nil the run also records — w takes the main thread's trace and
// sink opens each spawned thread's. A recording without a sink gives the
// VM no session provider, so a program that spawns fails typed instead
// of recording a main-only trace.
func live(ctx context.Context, prog *bytecode.Program, cfg Config, w io.Writer, topts trace.WriterOptions, sink ThreadTraceSink) (*Profile, error) {
	ins, err := instrumentFor(prog, cfg, w != nil)
	if err != nil {
		return nil, err
	}
	if topts.MaxBytes == 0 {
		topts.MaxBytes = cfg.Limits.MaxTraceBytes
	}
	r := &profileRun{ins: ins, cfg: cfg, sink: sink, topts: topts}
	var tw *trace.Writer
	if w != nil {
		tw = trace.NewWriter(w, topts)
	}
	r.main = newSession(ins, cfg, 0, tw)
	ts := r.main.wire(ins)
	vmCfg := vm.Config{
		Listener: ts.Listener,
		Plan:     ts.Plan,
		Journal:  ts.Journal,
		NumSites: ts.NumSites,
		Seed:     seedOf(cfg),
		Input:    cfg.Input,
		MaxSteps: cfg.MaxSteps,
		Watchdog: watchdogFor(ctx, cfg.Limits, time.Now(), cfg.Watchdog),
	}
	if w == nil || sink != nil {
		vmCfg.SpawnSession = r.spawn
	}
	machine := vm.New(ins.Prog, vmCfg)
	if ts.BindClock != nil {
		ts.BindClock(&machine.InstrCount)
	}
	build := func(tolerant bool) (*Profile, error) {
		p, err := r.finish(tolerant)
		if err != nil {
			return nil, err
		}
		p.Stdout = machine.Stdout
		p.Instructions = machine.TotalInstructions()
		for _, v := range machine.Output {
			p.Output = append(p.Output, v.String())
		}
		return p, nil
	}
	reasons, runErr := triageRunError(machine.Run())
	if interrupted(runErr) {
		// Leave a partial trace in its crash shape: the caller keeps what
		// replays and learns the run was cut short.
		if tw != nil {
			if aerr := tw.Abort(); aerr != nil {
				runErr = fmt.Errorf("%w (trace abort: %v)", runErr, aerr)
			}
		}
		return nil, salvage(func() *Profile {
			p, _ := build(true)
			return p
		}, runErr)
	}
	if tw != nil {
		// The main trace carries the main thread's own instruction count;
		// spawned threads' traces carry theirs, and replay sums them back
		// to the live run's total.
		tw.SetInstructions(machine.InstrCount)
		if werr := tw.Close(); werr != nil && runErr == nil {
			runErr = werr
		}
		if tw.Truncated() {
			reasons = append(reasons, "max-trace-bytes")
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	// A watchdog halt and a capped trace degrade the main thread's profile.
	r.main.reasons = reasons
	return build(false)
}

// replay rebuilds a profile offline: the one path behind the Replay entry
// points. r and each of threadTraces (keyed by thread id) drive a session
// of their own, as the live run's threads did, each trace decoded over
// workers goroutines (1 = sequential; see trace.Reader.ReplayParallel);
// the sessions then merge exactly as a live threaded run's do.
func replay(ctx context.Context, prog *bytecode.Program, cfg Config, r *trace.Reader, threadTraces map[int]*trace.Reader, workers int) (*Profile, error) {
	ins, err := instrumentFor(prog, cfg, true)
	if err != nil {
		return nil, err
	}
	var instrs uint64
	open := func(tid int, tr *trace.Reader) (*session, error) {
		s := newSession(ins, cfg, tid, nil)
		if err := tr.ReplayParallel(ctx, workers, s.tp.Dispatch); err != nil {
			return nil, err
		}
		if tr.Stats().Truncated {
			s.openOK, s.reasons = true, []string{"truncated-trace"}
		}
		instrs += tr.Stats().Instructions
		return s, nil
	}
	run := &profileRun{ins: ins, cfg: cfg}
	if run.main, err = open(0, r); err != nil {
		return nil, err
	}
	tids := make([]int, 0, len(threadTraces))
	for tid := range threadTraces {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		s, err := open(tid, threadTraces[tid])
		if err != nil {
			return nil, fmt.Errorf("thread %d: %w", tid, err)
		}
		run.threads = append(run.threads, s)
	}
	p, err := run.finish(false)
	if err != nil {
		return nil, err
	}
	p.Instructions = instrs
	return p, nil
}

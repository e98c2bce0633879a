package algoprof

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"algoprof/internal/core"
	"algoprof/internal/events/pipeline"
	"algoprof/internal/instrument"
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

// threadSessions fabricates one profiler session per spawned VM thread
// and keeps them registered for report-time merging. Each thread gets
// its own core profiler (its own repetition tree and snapshot registry)
// and, when the run is verified or recorded, its own transport — no
// producer is ever shared between threads. The per-thread trees are
// merged into the main profile only after every thread has terminated,
// with algorithm names prefixed "t<tid>:".
type threadSessions struct {
	ins   *instrument.Instrumented
	cfg   Config
	sink  ThreadTraceSink // non-nil in record mode
	topts trace.WriterOptions

	mu       sync.Mutex
	sessions []*threadSession
}

// threadSession is the profiling state of one spawned thread — built
// live by spawnSession, or synthesized by threaded replay with one
// session per recorded thread trace.
type threadSession struct {
	tid   int
	prof  *core.Profiler
	chk   *verify.Checker
	tw    *trace.Writer
	clock *uint64 // the thread's own instruction counter, bound before start
	err   error   // session infrastructure failure (e.g. sink open), surfaced at merge
	// openOK tolerates this thread's unbalanced stream (its trace was
	// truncated); extraReasons are appended, prefixed, to the profile's
	// degradation reasons. Both are set only by replay.
	openOK       bool
	extraReasons []string
}

// spawnSession implements vm.Config.SpawnSession. It is called from the
// spawning thread's goroutine, so registration is mutex-protected; the
// session it returns is used only by the new thread's goroutine.
func (ts *threadSessions) spawnSession(tid int) *vm.ThreadSession {
	s := &threadSession{tid: tid, prof: core.NewProfiler(ts.ins, coreOptions(ts.cfg))}
	ts.mu.Lock()
	ts.sessions = append(ts.sessions, s)
	ts.mu.Unlock()

	if !ts.cfg.Verify && ts.sink == nil {
		// Direct wiring: the thread's profiler is its listener.
		return &vm.ThreadSession{
			Listener: s.prof,
			Plan:     ts.ins.Plan,
			NumSites: ts.ins.NumSites(),
		}
	}

	tp := pipeline.New()
	tp.Add(s.prof, ts.ins.Plan)
	var wc io.WriteCloser
	if ts.sink != nil {
		w, err := ts.sink(tid)
		if err != nil {
			// SpawnSession cannot fail the spawn; remember the error and
			// surface it deterministically when the report is merged. The
			// thread still profiles — only its trace is lost.
			s.err = fmt.Errorf("algoprof: thread %d trace sink: %w", tid, err)
		} else {
			wc = w
			s.tw = trace.NewWriter(w, ts.topts)
			tp.Add(s.tw, nil)
		}
	}
	if ts.cfg.Verify {
		s.chk = verify.NewChecker()
		tp.Add(s.chk, nil)
	}
	pr := tp.Producer()
	sess := &vm.ThreadSession{
		Listener: pr,
		Plan:     ts.ins.Plan,
		NumSites: ts.ins.NumSites(),
		BindClock: func(c *uint64) {
			s.clock = c
			pr.BindClock(c)
		},
	}
	if ts.cfg.Verify || s.tw != nil {
		// The heap journal feeds the verifier's shadow heap and the trace's
		// replayable entity records.
		sess.Journal = pr
	}
	if s.tw != nil {
		// Runs on the thread's goroutine after it terminates: stamp and
		// seal its trace.
		sess.Close = func() error {
			s.tw.SetInstructions(*s.clock)
			err := s.tw.Close()
			if cerr := wc.Close(); err == nil {
				err = cerr
			}
			return err
		}
	}
	return sess
}

// sorted snapshots the registered sessions in thread-id order — the
// deterministic merge order, independent of goroutine scheduling.
func (ts *threadSessions) sorted() []*threadSession {
	ts.mu.Lock()
	out := append([]*threadSession(nil), ts.sessions...)
	ts.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].tid < out[j].tid })
	return out
}

// empty reports whether no thread was ever spawned.
func (ts *threadSessions) empty() bool {
	if ts == nil {
		return true
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.sessions) == 0
}

// mergeInto folds every per-thread repetition tree into p: each thread's
// profiler is finished and analyzed independently (the per-thread trees
// stay separate — input-size attribution never mixes threads), its
// algorithms join p.Algorithms under "t<tid>:" names, and the combined
// list is re-sorted by cost. Called only after the VM's Run returned,
// which guarantees every thread has terminated and its session closed.
// With tolerant set (salvage paths), per-thread errors degrade instead
// of failing.
func mergeThreadProfiles(ts *threadSessions, p *Profile, cfg Config, tolerant bool) error {
	if ts.empty() {
		return nil
	}
	sessions := ts.sorted()
	for _, s := range sessions {
		lenient := tolerant || s.openOK
		if s.err != nil {
			if !tolerant {
				return s.err
			}
			p.DegradedReasons = append(p.DegradedReasons, fmt.Sprintf("t%d:trace-lost", s.tid))
		}
		s.prof.Finish()
		if errs := s.prof.Errors(); len(errs) > 0 && s.chk == nil && !lenient {
			return fmt.Errorf("algoprof: internal profiling error (thread %d): %w", s.tid, errs[0])
		}
		tp := FromProfilerWith(s.prof, cfg.GroupStrategy)
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
		for _, r := range s.prof.DegradedReasons() {
			p.DegradedReasons = append(p.DegradedReasons, prefix+r)
		}
		for _, r := range s.extraReasons {
			p.DegradedReasons = append(p.DegradedReasons, prefix+r)
		}
		p.raw.threadEvents += s.prof.EventCount()
		if err := runVerify(s.chk, s.prof, lenient, cfg.Mode != ModePaths); err != nil && !tolerant {
			return err
		}
	}
	p.Threads = len(sessions)
	sort.SliceStable(p.Algorithms, func(i, j int) bool {
		return p.Algorithms[i].TotalSteps > p.Algorithms[j].TotalSteps
	})
	p.Degraded = p.Degraded || len(p.DegradedReasons) > 0
	return nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"algoprof"
	"algoprof/internal/classify"
	"algoprof/internal/core"
	"algoprof/internal/events/pipeline"
	"algoprof/internal/fit"
	"algoprof/internal/group"
	"algoprof/internal/instrument"
	"algoprof/internal/mj/bytecode"
	"algoprof/internal/mj/compiler"
	"algoprof/internal/report"
	"algoprof/internal/trace"
	"algoprof/internal/vm"
)

// threadProfiler is one VM thread's profiler; tid 0 is the main thread.
type threadProfiler struct {
	tid  int
	prof *core.Profiler
}

// compose is algoprof.Run taken apart: the same public calls into the
// compiler, instrumenter, VM, profiler core, grouping, classification and
// fitting, each inside its own span, for a program run with the default
// config. It returns the profile's algorithms as algoprof.Profile.JSON
// would serialize them.
func compose(tr *tracer, p program) ([]byte, error) {
	var prog *bytecode.Program
	if err := tr.call("mj.compile", func() (err error) {
		prog, err = compiler.CompileSource(p.src)
		return err
	}); err != nil {
		return nil, err
	}
	var ins *instrument.Instrumented
	if err := tr.call("instrument", func() (err error) {
		ins, err = instrument.Instrument(prog, instrument.Optimized)
		return err
	}); err != nil {
		return nil, err
	}
	var profs []threadProfiler
	if err := tr.call("core", func() (err error) {
		profs, err = profileProgram(ins, p.cfg)
		return err
	}); err != nil {
		return nil, err
	}
	for _, tp := range profs {
		hits, misses := tp.prof.Registry().MemoStats()
		tr.count("core.events", float64(tp.prof.EventCount()))
		tr.count("core.live_bytes", float64(tp.prof.LiveBytes()))
		tr.count("snapshot.memo_hits", float64(hits))
		tr.count("snapshot.memo_misses", float64(misses))
	}

	groups := make([]*group.Result, len(profs))
	tr.call("group", func() error {
		for i, tp := range profs {
			groups[i] = group.AnalyzeWith(tp.prof, group.Options{})
		}
		return nil
	})
	classes := make([]map[*group.Algorithm]*classify.AlgorithmClass, len(profs))
	tr.call("classify", func() error {
		for i, tp := range profs {
			classes[i] = classify.Classify(tp.prof, groups[i])
		}
		return nil
	})
	fits := make([]map[*group.Algorithm]map[string]*fit.Fit, len(profs))
	tr.call("fit", func() error {
		for i := range profs {
			fits[i] = map[*group.Algorithm]map[string]*fit.Fit{}
			for _, alg := range groups[i].Algorithms {
				fits[i][alg] = report.FitSeries(alg)
			}
		}
		return nil
	})
	var out []byte
	err := tr.call("report", func() (err error) {
		var algs []algoprof.Algorithm
		for i, tp := range profs {
			prefix := ""
			if tp.tid != 0 {
				prefix = fmt.Sprintf("t%d:", tp.tid)
			}
			algs = append(algs, assemble(tp.prof, groups[i], classes[i], fits[i], prefix)...)
			// The library sorts the main thread's algorithms, then the
			// merged list, both stably by total steps.
			sort.SliceStable(algs, func(a, b int) bool { return algs[a].TotalSteps > algs[b].TotalSteps })
		}
		tr.count("group.algorithms", float64(len(algs)))
		out, err = algorithmsJSON(algs)
		return err
	})
	return out, err
}

// profileProgram executes an instrumented program with a core profiler as
// the main thread's listener and one more profiler per spawned thread,
// wired directly as algoprof.Run wires them, and finishes every profiler.
func profileProgram(ins *instrument.Instrumented, cfg algoprof.Config) ([]threadProfiler, error) {
	main := core.NewProfiler(ins, core.Options{})
	var mu sync.Mutex
	var threads []threadProfiler
	m := vm.New(ins.Prog, vm.Config{
		Listener: main,
		Plan:     ins.Plan,
		NumSites: ins.NumSites(),
		Seed:     seedOf(cfg),
		Input:    cfg.Input,
		SpawnSession: func(tid int) *vm.ThreadSession {
			p := core.NewProfiler(ins, core.Options{})
			mu.Lock()
			threads = append(threads, threadProfiler{tid, p})
			mu.Unlock()
			return &vm.ThreadSession{Listener: p, Plan: ins.Plan, NumSites: ins.NumSites()}
		},
	})
	if err := m.Run(); err != nil {
		return nil, err
	}
	sort.Slice(threads, func(i, j int) bool { return threads[i].tid < threads[j].tid })
	profs := append([]threadProfiler{{0, main}}, threads...)
	for _, tp := range profs {
		tp.prof.Finish()
		if errs := tp.prof.Errors(); len(errs) > 0 {
			return nil, fmt.Errorf("thread %d: profiling error: %w", tp.tid, errs[0])
		}
	}
	return profs, nil
}

// plainRun executes the uninstrumented program with no listener — the
// bare interpreter cost the profiler's own cost is measured against.
func plainRun(tr *tracer, p program) error {
	var prog *bytecode.Program
	if err := tr.call("vm.plain.compile", func() (err error) {
		prog, err = compiler.CompileSource(p.src)
		return err
	}); err != nil {
		return err
	}
	var instrs uint64
	err := tr.call("vm.plain", func() error {
		m := vm.New(prog, vm.Config{Seed: seedOf(p.cfg), Input: p.cfg.Input})
		err := m.Run()
		instrs = m.TotalInstructions()
		return err
	})
	tr.count("vm.instructions", float64(instrs))
	return err
}

// assemble builds the public algorithm records of one thread's profile
// from its grouping, classification and fits, as algoprof does.
func assemble(prof *core.Profiler, groups *group.Result, classes map[*group.Algorithm]*classify.AlgorithmClass,
	fits map[*group.Algorithm]map[string]*fit.Fit, prefix string) []algoprof.Algorithm {
	reg := prof.Registry()
	var algs []algoprof.Algorithm
	for _, alg := range groups.Algorithms {
		if alg.Root.Kind == core.KindRoot {
			continue // the synthetic program root
		}
		a := algoprof.Algorithm{
			Name:        prefix + prof.NodeName(alg.Root),
			Invocations: alg.Root.Invocations(),
			TotalSteps:  alg.TotalSteps(),
			Operations:  map[string]int64{},
		}
		for _, pt := range alg.Combined {
			for k, v := range pt.Costs {
				if k.Type == "" {
					a.Operations[k.Op.String()] += v
				}
			}
		}
		for _, n := range alg.Nodes {
			a.Nodes = append(a.Nodes, prefix+prof.NodeName(n))
		}
		ac := classes[alg]
		a.Description = ac.Describe(func(id int) string { return reg.Input(id).Label() })
		a.DataStructureLess = ac.DataStructureLess()
		labels := make([]string, 0, len(fits[alg]))
		for l := range fits[alg] {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			f := fits[alg][l]
			cf := algoprof.CostFunction{
				InputLabel: l, Model: f.Model.String(), Coeff: f.Coeff,
				Intercept: f.Intercept, R2: f.R2, Text: f.String(),
			}
			for _, pt := range alg.Series[l] {
				cf.Points = append(cf.Points, algoprof.Point{Size: pt.Size, Steps: pt.Steps})
			}
			a.CostFunctions = append(a.CostFunctions, cf)
		}
		algs = append(algs, a)
	}
	return algs
}

// algorithmsJSON serializes algorithms the way algoprof.Profile.JSON does.
func algorithmsJSON(algs []algoprof.Algorithm) ([]byte, error) {
	return json.MarshalIndent(struct {
		Algorithms []algoprof.Algorithm `json:"algorithms"`
	}{algs}, "", "  ")
}

func seedOf(cfg algoprof.Config) uint64 {
	if cfg.Seed == 0 {
		return 1
	}
	return cfg.Seed
}

// memTraces holds one recording's trace files in memory: the main
// thread's trace and one per spawned thread.
type memTraces struct {
	mu      sync.Mutex
	main    bytes.Buffer
	threads map[int]*bytes.Buffer
}

type nopCloser struct{ *bytes.Buffer }

func (nopCloser) Close() error { return nil }

func (m *memTraces) sink(tid int) (io.WriteCloser, error) {
	b := &bytes.Buffer{}
	m.mu.Lock()
	m.threads[tid] = b
	m.mu.Unlock()
	return nopCloser{b}, nil
}

func (m *memTraces) size() int {
	n := m.main.Len()
	for _, b := range m.threads {
		n += b.Len()
	}
	return n
}

// readers opens every trace of the recording.
func (m *memTraces) readers() (*trace.Reader, map[int]*trace.Reader, error) {
	r, err := trace.NewReader(m.main.Bytes())
	if err != nil {
		return nil, nil, err
	}
	threads := map[int]*trace.Reader{}
	for tid, b := range m.threads {
		if threads[tid], err = trace.NewReader(b.Bytes()); err != nil {
			return nil, nil, err
		}
	}
	return r, threads, nil
}

// traceOptions are the trace writer settings of every recording here:
// DEFLATE per frame, as the daemon records.
var traceOptions = trace.WriterOptions{Compress: true}

// memRoundTrip records a program into memory with algoprof and replays
// the in-memory traces into a profile: the two library calls the run
// store wraps. It returns the recording, its profile's JSON, and the
// replayed profile.
func memRoundTrip(tr *tracer, p program) (mem *memTraces, recorded []byte, replayed *algoprof.Profile, err error) {
	mem = &memTraces{threads: map[int]*bytes.Buffer{}}
	var prof *algoprof.Profile
	if err := tr.call("algoprof.record", func() (err error) {
		prof, err = algoprof.RecordSinkContext(context.Background(), p.src, p.cfg, &mem.main, traceOptions, mem.sink)
		return err
	}); err != nil {
		return nil, nil, nil, err
	}
	if recorded, err = prof.JSON(); err != nil {
		return nil, nil, nil, err
	}
	var prog *bytecode.Program
	if err := tr.call("trace.replay_profile.compile", func() (err error) {
		prog, err = compiler.CompileSource(p.src)
		return err
	}); err != nil {
		return nil, nil, nil, err
	}
	err = tr.call("trace.replay_profile", func() error {
		r, threads, err := mem.readers()
		if err != nil {
			return err
		}
		replayed, err = algoprof.ReplayProgramThreadsContext(context.Background(), prog, p.cfg, r, threads)
		return err
	})
	return mem, recorded, replayed, err
}

// traceCodec times the trace format alone on a recording: a decode of
// every trace into a no-op consumer, and a re-encode of the decoded
// record stream with compression on.
func traceCodec(tr *tracer, mem *memTraces) error {
	var records, frames, ckpts float64
	if err := tr.call("trace.decode", func() error {
		r, threads, err := mem.readers()
		if err != nil {
			return err
		}
		for _, rd := range append([]*trace.Reader{r}, sortedReaders(threads)...) {
			if err := rd.Replay(func(*pipeline.Record) {}); err != nil {
				return err
			}
			records += float64(rd.Stats().Records)
			frames += float64(rd.NumFrames())
			ckpts += float64(len(rd.Checkpoints()))
		}
		return nil
	}); err != nil {
		return err
	}
	tr.count("trace.records", records)
	tr.count("trace.frames", frames)
	tr.count("trace.checkpoints", ckpts)
	tr.count("trace.bytes", float64(mem.size()))

	// Capturing the decoded stream is benchmark scaffolding, not a layer:
	// it gets a span of its own so that coverage stays honest.
	var streams [][]pipeline.Record
	if err := tr.call("trace.capture", func() error {
		r, threads, err := mem.readers()
		if err != nil {
			return err
		}
		for _, rd := range append([]*trace.Reader{r}, sortedReaders(threads)...) {
			var recs []pipeline.Record
			if err := rd.Replay(func(rec *pipeline.Record) { recs = append(recs, *rec) }); err != nil {
				return err
			}
			streams = append(streams, recs)
		}
		return nil
	}); err != nil {
		return err
	}
	return tr.call("trace.encode", func() error {
		for _, recs := range streams {
			tw := trace.NewWriter(io.Discard, traceOptions)
			for i := range recs {
				tw.Record(&recs[i])
			}
			if err := tw.Close(); err != nil {
				return err
			}
		}
		return nil
	})
}

func sortedReaders(m map[int]*trace.Reader) []*trace.Reader {
	tids := make([]int, 0, len(m))
	for tid := range m {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	out := make([]*trace.Reader, len(tids))
	for i, tid := range tids {
		out[i] = m[tid]
	}
	return out
}

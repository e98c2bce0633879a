package experiments

import (
	"context"
	"fmt"
	"io"

	"algoprof"
	"algoprof/internal/bbprof"
	"algoprof/internal/cct"
	"algoprof/internal/core"
	"algoprof/internal/events"
	"algoprof/internal/events/pipeline"
	"algoprof/internal/instrument"
	"algoprof/internal/mj/compiler"
	"algoprof/internal/trace"
	"algoprof/internal/vm"
)

// backendSetup is the static half of a combined three-backend pass: the
// compiled program under both instrumentation levels, the consumers'
// union plan, a transport with the core and CCT consumers attached, and
// the basic-block counter, which each caller wires to the instruction
// ticks its own way.
type backendSetup struct {
	insFull  *instrument.Instrumented
	union    *events.Plan
	tp       *pipeline.Transport
	coreProf *core.Profiler
	cctProf  *cct.Profiler
	bb       *bbprof.Profiler
}

func newBackendSetup(src string) (*backendSetup, error) {
	prog, err := compiler.CompileSource(src)
	if err != nil {
		return nil, err
	}
	insFull, err := instrument.Instrument(prog, instrument.Full)
	if err != nil {
		return nil, err
	}
	insOpt, err := instrument.Instrument(prog, instrument.Optimized)
	if err != nil {
		return nil, err
	}
	// The VM emits under the union of what any consumer needs: every
	// method (the CCT baseline) plus the optimized plan's fields, allocs,
	// arrays and io (the core). Events no consumer would act on — e.g.
	// accesses to non-recursive value fields, which only the full plan
	// carries — never enter the stream.
	union := events.NewEmptyPlan(len(insFull.Plan.MethodEntryExit),
		len(insFull.Plan.FieldAccess), len(insFull.Plan.AllocClass))
	for m := range union.MethodEntryExit {
		union.MethodEntryExit[m] = true
	}
	copy(union.FieldAccess, insOpt.Plan.FieldAccess)
	copy(union.AllocClass, insOpt.Plan.AllocClass)
	union.Arrays = insOpt.Plan.Arrays
	union.IO = insOpt.Plan.IO

	s := &backendSetup{insFull: insFull, union: union}
	s.tp = pipeline.New()
	s.coreProf = core.NewProfiler(insOpt, core.Options{})
	s.tp.Add(s.coreProf, insOpt.Plan)
	var cctCons *pipeline.Consumer
	s.cctProf = cct.New(func() uint64 { return cctCons.Clock() })
	cctCons = s.tp.Add(s.cctProf, nil)
	s.bb = bbprof.New(insFull.Prog)
	return s, nil
}

// tapBlocks feeds the basic-block counter from the stream's instruction
// ticks instead of a VM hook: the ticks must be in the stream anyway for
// offline replay, and the counts are identical either way.
func (s *backendSetup) tapBlocks() { s.tp.Add(pipeline.InstrTap{Fn: s.bb.Hook}, nil) }

// finish closes out the backends and assembles the result.
func (s *backendSetup) finish(instructions uint64) (*Backends, error) {
	s.coreProf.Finish()
	s.cctProf.Finish()
	if errs := s.coreProf.Errors(); len(errs) > 0 {
		return nil, fmt.Errorf("backends: internal profiling error: %w", errs[0])
	}
	profile := algoprof.FromProfiler(s.coreProf)
	profile.Instructions = instructions
	return &Backends{
		Profile:      profile,
		CCT:          s.cctProf,
		BBRun:        s.bb.Snapshot(0),
		Instructions: instructions,
		ins:          s.insFull,
	}, nil
}

// RecordBackends executes src once, feeding all three backends from the
// stream like RunBackends, while capturing the full record stream —
// instruction ticks and heap journal included — to w as a trace file. The
// returned Backends is the live result; replaying the trace with
// ReplayBackends reproduces it byte for byte.
func RecordBackends(src string, seed uint64, w io.Writer, topts trace.WriterOptions) (*Backends, error) {
	s, err := newBackendSetup(src)
	if err != nil {
		return nil, err
	}
	s.tapBlocks()
	tw := trace.NewWriter(w, topts)
	s.tp.Add(tw, nil)
	pr := s.tp.Producer()
	machine := vm.New(s.insFull.Prog, vm.Config{
		Listener:  pr,
		Plan:      s.union,
		InstrHook: pr.Instr,
		Journal:   pr,
		Seed:      seed,
	})
	pr.BindClock(&machine.InstrCount)
	runErr := machine.Run()
	tw.SetInstructions(machine.InstrCount)
	if werr := tw.Close(); werr != nil && runErr == nil {
		runErr = werr
	}
	if runErr != nil {
		return nil, runErr
	}
	return s.finish(machine.InstrCount)
}

// ReplayBackends runs all three backends offline on a recorded trace of
// src, with no VM involved: the reader reconstructs each record — heap
// entities included — and dispatches it through the same consumer fan-out
// a live run uses.
func ReplayBackends(src string, r *trace.Reader) (*Backends, error) {
	return replayBackends(src, r, r.Replay)
}

// ReplayBackendsParallel is ReplayBackends with the trace's frame decoding
// fanned out over workers goroutines; the three backends' results are
// byte-identical to a sequential replay's (records still bind and dispatch
// in recorded order — see trace.Reader.ReplayParallel).
func ReplayBackendsParallel(src string, r *trace.Reader, workers int) (*Backends, error) {
	return replayBackends(src, r, func(dispatch func(*pipeline.Record)) error {
		return r.ReplayParallel(context.Background(), workers, dispatch)
	})
}

func replayBackends(src string, r *trace.Reader, replay func(func(*pipeline.Record)) error) (*Backends, error) {
	s, err := newBackendSetup(src)
	if err != nil {
		return nil, err
	}
	s.tapBlocks()
	if err := replay(s.tp.Dispatch); err != nil {
		return nil, err
	}
	return s.finish(r.Stats().Instructions)
}

// Package algoprof is a Go reproduction of "Algorithmic Profiling"
// (Zaparanuks & Hauswirth, PLDI 2012).
//
// An algorithmic profiler does not just report where a program spends its
// resources — it reports a *cost function*: for each algorithm it finds in
// the program, it automatically determines the algorithm's inputs,
// measures their sizes, counts high-level costs (algorithmic steps,
// structure reads/writes, element creations, I/O operations), and fits an
// empirical cost function relating input size to cost.
//
// The profiled programs are written in MJ, a small Java-like language
// compiled to bytecode and executed by an instrumented interpreter — the
// substitute for the paper's JVM instrumentation. The top-level entry
// point is Run:
//
//	profile, err := algoprof.Run(src, algoprof.Config{})
//	fmt.Println(profile.Tree())
//	for _, alg := range profile.Algorithms {
//	    fmt.Println(alg.Name, alg.Description, alg.CostFunctions)
//	}
package algoprof

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"algoprof/internal/bbprof"
	"algoprof/internal/cct"
	"algoprof/internal/classify"
	"algoprof/internal/core"
	"algoprof/internal/fit"
	"algoprof/internal/group"
	"algoprof/internal/instrument"
	"algoprof/internal/mj/bytecode"
	"algoprof/internal/mj/compiler"
	"algoprof/internal/report"
	"algoprof/internal/trace"
)

// SizeStrategy selects how array input sizes are measured (paper §3.4).
type SizeStrategy int

// Array size strategies.
const (
	// Capacity counts array slots.
	Capacity SizeStrategy = iota
	// UniqueElements counts distinct elements (approximates the used
	// fraction of over-allocated arrays).
	UniqueElements
)

// Criterion selects the snapshot equivalence criterion (paper §2.4).
type Criterion int

// Equivalence criteria.
const (
	// SomeElements (default): snapshots sharing one element are the same
	// input — the paper's choice.
	SomeElements Criterion = iota
	// AllElements: only identical element sets unify.
	AllElements
	// SameArray: arrays unify by identity only.
	SameArray
	// SameType: snapshots with the same element type signature unify.
	SameType
)

// GroupStrategy selects how repetitions group into algorithms (§2.5).
type GroupStrategy int

// Grouping strategies.
const (
	// SharedInput (default): parent and child group when they work on a
	// common input — the paper's automatic strategy.
	SharedInput GroupStrategy = iota
	// SameMethod: parent and child group when they are repetitions of the
	// same method — the alternative §2.5 mentions.
	SameMethod
)

// Profiling modes (Config.Mode).
const (
	// ModeEvents streams one event per structure access and loop
	// iteration — the exact baseline (default).
	ModeEvents = "events"
	// ModePaths counts Ball–Larus whole-iteration paths per loop and
	// decodes iteration and access totals offline from the counters —
	// the low-overhead mode.
	ModePaths = "paths"
)

// Config controls a profiling run.
type Config struct {
	// Mode selects how the VM reports costs to the profiler: "events"
	// (or "") streams one event per access and iteration; "paths"
	// instruments counted loops with Ball–Larus path counters extended
	// across back edges and decodes totals at loop exit. Where the
	// decode is exact the two modes produce identical profiles; paths
	// mode runs with a fraction of the events-mode overhead.
	Mode string
	// Seed drives the program's rand() builtin (default 1).
	Seed uint64
	// Input feeds the program's readInput() builtin.
	Input []int64
	// SizeStrategy selects array size measurement.
	SizeStrategy SizeStrategy
	// Criterion selects the input equivalence criterion.
	Criterion Criterion
	// GroupStrategy selects the algorithm grouping strategy.
	GroupStrategy GroupStrategy
	// EagerIdentify disables the paper's deferred-identification
	// optimization (ablation; slower on constructions).
	EagerIdentify bool
	// DisableMemo disables the incremental snapshot memo (ablation: every
	// observation re-traverses its O(size) structure — the paper's
	// measured behaviour, which §5 calls to optimize).
	DisableMemo bool
	// SampleEvery keeps every k-th invocation record (0/1 = all); totals
	// stay exact, series thin out — the paper's §3.3 memory optimization.
	SampleEvery int
	// MaxSteps bounds execution (0 = default of 1e9 instructions).
	MaxSteps uint64
	// Limits bounds the run's events, memory, trace size, and wall-clock
	// time. The zero value imposes none; see Limits for the degradation
	// semantics (limits degrade the profile, they do not fail the run).
	Limits Limits
	// Verify runs the online invariant verifier (internal/verify) as one
	// more rider of each thread's event stream: the stream is checked for
	// well-formedness while the program runs, and the repetition tree is
	// cross-checked against the stream afterwards (and, with Backends,
	// the CCT's call counts too). Any violation fails the run with a
	// *verify.Error (fault class: corruption) instead of returning a
	// silently inconsistent profile.
	Verify bool
	// Backends runs the paper's two comparison profilers on the same
	// execution: the calling-context tree of Figure 2 and Goldsmith et
	// al.'s basic-block counter, one of each per thread. The VM then
	// emits every method's entry and exit and the profiler's stream is
	// filtered back to its own plan, so the profile is identical to a run
	// without Backends; Profile.Baselines holds the two baselines'
	// results. A recording also carries the instruction ticks the block
	// counter needs on replay, so replaying with Backends needs a
	// recording made with it. Events mode only.
	Backends bool `json:",omitempty"`
	// Watchdog is an extra hook composed into the VM watchdog alongside
	// the context and Limits.Deadline checks; a non-nil error halts the VM
	// (a *vm.Halt degrades the run cleanly, anything else fails it). Chaos
	// harnesses inject deterministic mid-frame deadline faults through it.
	// Never serialized.
	Watchdog func() error `json:"-"`
}

// Point is one (input size, algorithmic steps) sample.
type Point struct {
	Size  int
	Steps int64
}

// CostFunction is a fitted empirical cost function.
type CostFunction struct {
	// InputLabel describes the input the function is over (e.g. "Node-
	// based recursive structure").
	InputLabel string
	// Model is the growth term ("n", "n^2", "n log n", ...).
	Model string
	// Coeff and Intercept parameterize cost ≈ Coeff·model + Intercept.
	Coeff     float64
	Intercept float64
	// R2 is the fit's coefficient of determination.
	R2 float64
	// Text renders like the paper's annotations, e.g. "0.25*n^2".
	Text string
	// Points is the series the function was fitted to.
	Points []Point
}

// Algorithm summarizes one algorithm found in the program.
type Algorithm struct {
	// Name is the root repetition's name, e.g. "List.sort/loop1".
	Name string
	// Nodes lists all member repetition names.
	Nodes []string
	// Description is the classification, e.g. "Modification of a
	// Node-based recursive structure".
	Description string
	// DataStructureLess reports an algorithm with no inputs.
	DataStructureLess bool
	// Invocations is the number of root invocations.
	Invocations int
	// TotalSteps is the combined algorithmic step count over all
	// invocations.
	TotalSteps int64
	// Operations breaks the combined costs down by primitive operation
	// (§2.2/§3.3 cost maps): STEP, GET, PUT, LOAD, STORE, NEW, IN, OUT.
	Operations map[string]int64
	// CostFunctions holds one fitted function per input kind (series
	// with at least three distinct sizes).
	CostFunctions []CostFunction
}

// Profile is the result of one profiling run.
type Profile struct {
	// Algorithms, most expensive (by TotalSteps) first.
	Algorithms []Algorithm

	// Stdout and Output are the program's print() and writeOutput()
	// results.
	Stdout []string
	Output []string

	// Instructions is the number of bytecode instructions executed, summed
	// over the main thread and every spawned thread.
	Instructions uint64

	// Threads is the number of VM threads the program spawned (0 for a
	// single-threaded run). Spawned threads contribute "t<tid>:"-prefixed
	// algorithms: their repetition trees are kept per-thread in the trace
	// and merged only at report time.
	Threads int

	// Degraded reports that a resource limit cut the run's fidelity: the
	// profile was built from deterministically sampled invocations, a
	// halted prefix of the run, or a truncated trace. Totals are exact
	// over what executed; series are thinner but still fittable.
	Degraded bool
	// DegradedReasons lists what tripped, in order ("max-events",
	// "max-live-bytes", "deadline", "max-trace-bytes", "truncated-trace",
	// "interrupted").
	DegradedReasons []string

	// Baselines holds the comparison profilers' results of a
	// Config.Backends run, one entry per thread: the main thread's first,
	// then the spawned threads' in thread-id order. Nil otherwise.
	Baselines []Baselines

	raw rawProfile
}

// Baselines is one VM thread's results from the paper's two comparison
// profilers (Config.Backends).
type Baselines struct {
	// Thread is the thread id: 0 for the main thread.
	Thread int
	// CCT is the thread's finished calling-context tree.
	CCT *cct.Profiler
	// Blocks holds the thread's basic-block execution counts.
	Blocks bbprof.Run
	// Instructions is the thread's own executed instruction count.
	Instructions uint64
	// Program is the instrumented program that the CCT's method ids and
	// the block locations refer to.
	Program *bytecode.Program
}

type rawProfile struct {
	profiler *core.Profiler
	groups   *group.Result
	classes  map[*group.Algorithm]*classify.AlgorithmClass
	fits     map[*group.Algorithm]map[string]*fit.Fit
	// threadEvents is the profiling-event total of all spawned threads'
	// profilers, accumulated at merge time.
	threadEvents uint64
}

// EventCount reports the profiling events consumed across all threads'
// profilers — the number tenant event budgets charge.
func (p *Profile) EventCount() uint64 {
	var n uint64
	if p.raw.profiler != nil {
		n = p.raw.profiler.EventCount()
	}
	return n + p.raw.threadEvents
}

// Raw exposes the underlying analysis objects for advanced use (internal
// types; subject to change).
func (p *Profile) Raw() (*core.Profiler, *group.Result) {
	return p.raw.profiler, p.raw.groups
}

// Tree renders the repetition tree with algorithm annotations (Figure 3).
func (p *Profile) Tree() string {
	return report.RenderTree(p.raw.profiler, p.raw.groups, p.raw.classes, report.TreeOptions{
		Fits: func(alg *group.Algorithm) map[string]*fit.Fit { return p.raw.fits[alg] },
	})
}

// PlotAlgorithm renders an ASCII scatter plot (Figure 1) of the named
// algorithm's series for the given input label ("" = first available).
func (p *Profile) PlotAlgorithm(name, inputLabel string, width, height int) (string, error) {
	for _, alg := range p.raw.groups.Algorithms {
		if p.raw.profiler.NodeName(alg.Root) != name {
			continue
		}
		labels := make([]string, 0, len(alg.Series))
		for l := range alg.Series {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		if inputLabel == "" && len(labels) > 0 {
			inputLabel = labels[0]
		}
		pts, ok := alg.Series[inputLabel]
		if !ok {
			return "", fmt.Errorf("algoprof: algorithm %q has no series %q (have %v)", name, inputLabel, labels)
		}
		fpts := make([]fit.Point, len(pts))
		for i, pt := range pts {
			fpts[i] = fit.Point{Size: float64(pt.Size), Cost: float64(pt.Steps)}
		}
		return report.Scatter(fpts, p.raw.fits[alg][inputLabel], width, height), nil
	}
	return "", fmt.Errorf("algoprof: no algorithm rooted at %q", name)
}

// JSON serializes the profile's structured results (algorithms,
// classifications, cost functions with their data points, program
// outputs) for consumption by external tooling.
func (p *Profile) JSON() ([]byte, error) {
	return json.MarshalIndent(struct {
		Algorithms      []Algorithm `json:"algorithms"`
		Stdout          []string    `json:"stdout,omitempty"`
		Output          []string    `json:"output,omitempty"`
		Instructions    uint64      `json:"instructions"`
		Threads         int         `json:"threads,omitempty"`
		Degraded        bool        `json:"degraded,omitempty"`
		DegradedReasons []string    `json:"degraded_reasons,omitempty"`
	}{p.Algorithms, p.Stdout, p.Output, p.Instructions, p.Threads, p.Degraded, p.DegradedReasons}, "", "  ")
}

// Find returns the algorithm rooted at the named repetition.
func (p *Profile) Find(name string) *Algorithm {
	for i := range p.Algorithms {
		if p.Algorithms[i].Name == name {
			return &p.Algorithms[i]
		}
	}
	return nil
}

// Run compiles MJ source, instruments it, executes it, and assembles the
// algorithmic profile.
func Run(src string, cfg Config) (*Profile, error) {
	return RunContext(context.Background(), src, cfg)
}

// RunContext is Run with cooperative cancellation: the VM polls ctx and
// halts within a few thousand instructions of it being done. Cancellation
// returns a *PartialError carrying the best-effort partial profile, unlike
// cfg.Limits, which degrade the profile without failing the run.
func RunContext(ctx context.Context, src string, cfg Config) (*Profile, error) {
	prog, err := compiler.CompileSource(src)
	if err != nil {
		return nil, err
	}
	return live(ctx, prog, cfg, nil, trace.WriterOptions{}, nil)
}

// RunProgram profiles an already compiled program.
func RunProgram(prog *bytecode.Program, cfg Config) (*Profile, error) {
	return live(context.Background(), prog, cfg, nil, trace.WriterOptions{}, nil)
}

// instrumentFor checks cfg.Mode and instruments prog for it. traced marks
// a recording or a replay: traces carry the exact event stream, whose
// records path counters elide, so those require events mode (record in
// events mode and profile the trace under either mode's semantics
// offline). Backends does too: path counting rewrites the loops'
// bytecode, which would change the blocks and instruction costs the two
// baselines count.
func instrumentFor(prog *bytecode.Program, cfg Config, traced bool) (*instrument.Instrumented, error) {
	mode := instrument.Optimized
	switch cfg.Mode {
	case "", ModeEvents:
	case ModePaths:
		if traced {
			return nil, fmt.Errorf("algoprof: trace recording and replay require events mode (got mode %q)", cfg.Mode)
		}
		if cfg.Backends {
			return nil, fmt.Errorf("algoprof: Backends requires events mode (got mode %q)", cfg.Mode)
		}
		mode = instrument.Paths
	default:
		return nil, fmt.Errorf("algoprof: unknown mode %q (want %q or %q)", cfg.Mode, ModeEvents, ModePaths)
	}
	return instrument.Instrument(prog, mode)
}

// FromProfiler assembles a Profile from a finished core profiler — used by
// alternative frontends such as the probe API.
func FromProfiler(prof *core.Profiler) *Profile {
	return fromProfiler(prof, SharedInput)
}

// fromProfiler is FromProfiler under an explicit grouping strategy.
func fromProfiler(prof *core.Profiler, strategy GroupStrategy) *Profile {
	groups := group.AnalyzeWith(prof, group.Options{Strategy: group.Strategy(strategy)})
	classes := classify.Classify(prof, groups)
	fits := map[*group.Algorithm]map[string]*fit.Fit{}
	for _, alg := range groups.Algorithms {
		fits[alg] = report.FitSeries(alg)
	}

	p := &Profile{
		raw: rawProfile{
			profiler: prof,
			groups:   groups,
			classes:  classes,
			fits:     fits,
		},
	}

	reg := prof.Registry()
	for _, alg := range groups.Algorithms {
		if alg.Root.Kind == core.KindRoot {
			continue // synthetic program root
		}
		a := Algorithm{
			Name:        prof.NodeName(alg.Root),
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
			a.Nodes = append(a.Nodes, prof.NodeName(n))
		}
		ac := classes[alg]
		a.Description = ac.Describe(func(id int) string { return reg.Input(id).Label() })
		a.DataStructureLess = ac.DataStructureLess()

		labels := make([]string, 0, len(fits[alg]))
		for l := range fits[alg] {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, label := range labels {
			f := fits[alg][label]
			cf := CostFunction{
				InputLabel: label,
				Model:      f.Model.String(),
				Coeff:      f.Coeff,
				Intercept:  f.Intercept,
				R2:         f.R2,
				Text:       f.String(),
			}
			for _, pt := range alg.Series[label] {
				cf.Points = append(cf.Points, Point{Size: pt.Size, Steps: pt.Steps})
			}
			a.CostFunctions = append(a.CostFunctions, cf)
		}
		p.Algorithms = append(p.Algorithms, a)
	}
	sort.SliceStable(p.Algorithms, func(i, j int) bool {
		return p.Algorithms[i].TotalSteps > p.Algorithms[j].TotalSteps
	})
	return p
}

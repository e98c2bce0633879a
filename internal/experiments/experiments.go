// Package experiments regenerates every table and figure of the AlgoProf
// paper's evaluation on the MJ substrate. Each experiment returns both the
// structured data (so benchmarks and tests can assert the paper's
// qualitative results: who wins, what the growth shapes are, where the
// classifications land) and a rendered text form (so cmd/paper can print
// paper-style output).
package experiments

import (
	"fmt"
	"math"
	"strings"

	"algoprof"
	"algoprof/internal/bbprof"
	"algoprof/internal/benchfile"
	"algoprof/internal/cct"
	"algoprof/internal/mj/compiler"
	"algoprof/internal/report"
	"algoprof/internal/vm"
	"algoprof/internal/workloads"
)

// Sweep parameterizes the input-size sweeps. The defaults keep every
// experiment comfortably inside a laptop-second budget while leaving
// enough size range for the n / n·log n / n² shapes to separate.
type Sweep struct {
	MaxSize int    `json:"max_size"`
	Step    int    `json:"step"`
	Reps    int    `json:"reps"`
	Seed    uint64 `json:"seed"`
}

// DefaultSweep is used by cmd/paper and the benchmarks.
var DefaultSweep = Sweep{MaxSize: 96, Step: 6, Reps: 3, Seed: 42}

// ---------------------------------------------------------------------------
// Figure 1: cost functions of insertion sort under three input orders.

// Figure1Result is the reproduction of one Figure 1 panel.
type Figure1Result struct {
	Order  workloads.Order
	Points []algoprof.Point
	// Model and Coeff describe the fitted cost function.
	Model     string
	Coeff     float64
	Intercept float64
	R2        float64
	Text      string
	Plot      string
}

// Figure1 profiles the running example with the given input order and
// extracts the sort algorithm's cost function.
func Figure1(order workloads.Order, sw Sweep) (*Figure1Result, error) {
	prof, err := algoprof.Run(workloads.RunningExample(order, sw.MaxSize, sw.Step, sw.Reps),
		algoprof.Config{Seed: sw.Seed})
	if err != nil {
		return nil, err
	}
	alg := prof.Find("List.sort/loop1")
	if alg == nil {
		return nil, fmt.Errorf("figure1(%s): sort algorithm not found", order)
	}
	var cf *algoprof.CostFunction
	for i := range alg.CostFunctions {
		if strings.Contains(alg.CostFunctions[i].InputLabel, "Node") {
			cf = &alg.CostFunctions[i]
		}
	}
	if cf == nil {
		return nil, fmt.Errorf("figure1(%s): no Node cost function (have %v)", order, alg.CostFunctions)
	}
	plot, err := prof.PlotAlgorithm("List.sort/loop1", cf.InputLabel, 64, 16)
	if err != nil {
		return nil, err
	}
	return &Figure1Result{
		Order:     order,
		Points:    cf.Points,
		Model:     cf.Model,
		Coeff:     cf.Coeff,
		Intercept: cf.Intercept,
		R2:        cf.R2,
		Text:      cf.Text,
		Plot:      plot,
	}, nil
}

// Figure1All regenerates all three Figure 1 panels (random, sorted,
// reversed input).
func Figure1All(sw Sweep) ([]*Figure1Result, error) {
	var out []*Figure1Result
	for _, order := range []workloads.Order{workloads.Random, workloads.Sorted, workloads.Reversed} {
		res, err := Figure1(order, sw)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 2: the traditional CCT profile of the running example.

// Figure2Result is the baseline calling-context-tree profile.
type Figure2Result struct {
	Tree string
	// HottestExclusive is the qualified name of the method with the most
	// exclusive cost — the paper's Figure 2 observation is that List.sort
	// is the hottest method.
	HottestExclusive string
	// MostCalled is the method with the most invocations — the paper
	// observes List.append and the Node constructor dominate.
	MostCalled string
}

// Figure2 runs the running example under the CCT baseline.
func Figure2(sw Sweep) (*Figure2Result, error) {
	prog, err := compiler.CompileSource(workloads.RunningExample(workloads.Random, sw.MaxSize, sw.Step, sw.Reps))
	if err != nil {
		return nil, err
	}
	p, iprog, err := cct.Baseline(prog, sw.Seed, nil)
	if err != nil {
		return nil, err
	}

	flat := p.Flat()
	if len(flat) == 0 {
		return nil, fmt.Errorf("figure2: empty profile")
	}
	res := &Figure2Result{
		Tree:             cct.Render(p, iprog),
		HottestExclusive: iprog.Sem.MethodByID(flat[0].MethodID).QualifiedName(),
	}
	var maxCalls int64 = -1
	for _, h := range flat {
		if h.Calls > maxCalls {
			maxCalls = h.Calls
			res.MostCalled = iprog.Sem.MethodByID(h.MethodID).QualifiedName()
		}
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 3: the repetition tree with algorithm annotations.

// Figure3Result is the annotated repetition tree.
type Figure3Result struct {
	Tree string
	// LoopCount is the number of loop nodes (the paper's tree has 5).
	LoopCount int
	// SortDescription and ConstructDescription are the algorithm
	// annotations the paper highlights.
	SortDescription      string
	ConstructDescription string
	// SortModel is the fitted growth term for the sort algorithm
	// ("n^2" with coefficient ~0.25 in the paper).
	SortModel string
	SortCoeff float64
}

// Figure3 profiles the running example and extracts the repetition tree.
func Figure3(sw Sweep) (*Figure3Result, error) {
	prof, err := algoprof.Run(workloads.RunningExample(workloads.Random, sw.MaxSize, sw.Step, sw.Reps),
		algoprof.Config{Seed: sw.Seed})
	if err != nil {
		return nil, err
	}
	res := &Figure3Result{Tree: prof.Tree()}
	res.LoopCount = strings.Count(res.Tree, "/loop")

	if alg := prof.Find("List.sort/loop1"); alg != nil {
		res.SortDescription = alg.Description
		for _, cf := range alg.CostFunctions {
			if strings.Contains(cf.InputLabel, "Node") {
				res.SortModel = cf.Model
				res.SortCoeff = cf.Coeff
			}
		}
	}
	if alg := prof.Find("Main.construct/loop1"); alg != nil {
		res.ConstructDescription = alg.Description
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Table 1: the 18 data-structure programs.

// Table1Outcome is one evaluated row.
type Table1Outcome struct {
	Row    workloads.Row
	Result workloads.RowResult
}

// Table1 evaluates all 18 rows at the given structure size, in the
// paper's row order.
func Table1(size int, seed uint64) ([]Table1Outcome, error) {
	var out []Table1Outcome
	for _, row := range workloads.Table1() {
		res, err := workloads.EvaluateRow(row, size, seed)
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", row.Name(), err)
		}
		out = append(out, Table1Outcome{Row: row, Result: res})
	}
	return out, nil
}

// RenderTable1 prints the outcomes in the paper's Table 1 layout.
func RenderTable1(outcomes []Table1Outcome) string {
	headers := []string{"Struct", "Impl.", "Linkage", "T", "Rem.", "I", "S", "G"}
	var rows [][]string
	mark := func(ok bool) string {
		if ok {
			return "x"
		}
		return "-"
	}
	for _, o := range outcomes {
		rows = append(rows, []string{
			o.Row.Struct, o.Row.Impl, o.Row.Linkage, o.Row.T, o.Row.Rem,
			mark(o.Result.InputsOK), mark(o.Result.SizeOK), o.Result.G,
		})
	}
	return report.Table(headers, rows)
}

// ---------------------------------------------------------------------------
// Figures 4 and 5: the growing array-backed list.

// Figure45Result covers both the repetition tree (Figure 4) and the cost
// functions of the naive and ideal growth strategies (Figure 5).
type Figure45Result struct {
	NaiveTree  string
	NaiveModel string
	NaiveCoeff float64
	NaivePlot  string
	IdealModel string
	IdealCoeff float64
	IdealPlot  string
	// Grouped reports whether append and grow formed one algorithm and
	// the harness stayed separate (Figure 4's two-algorithm structure).
	Grouped bool
}

// Figure45 profiles Listing 6 under both growth strategies.
func Figure45(sw Sweep) (*Figure45Result, error) {
	res := &Figure45Result{Grouped: true}
	for _, naive := range []bool{true, false} {
		prof, err := algoprof.Run(workloads.ArrayListGrow(naive, sw.MaxSize, sw.Step, sw.Reps),
			algoprof.Config{Seed: sw.Seed})
		if err != nil {
			return nil, err
		}
		alg := prof.Find("Main.testForSize/loop1")
		if alg == nil {
			return nil, fmt.Errorf("figure45(naive=%v): append algorithm not found", naive)
		}
		hasGrow := false
		for _, n := range alg.Nodes {
			if n == "ArrayList.growIfFull/loop1" {
				hasGrow = true
			}
		}
		if len(alg.CostFunctions) == 0 {
			return nil, fmt.Errorf("figure45(naive=%v): no cost function", naive)
		}
		cf := alg.CostFunctions[0]
		plot, err := prof.PlotAlgorithm("Main.testForSize/loop1", cf.InputLabel, 64, 14)
		if err != nil {
			return nil, err
		}
		if !hasGrow {
			res.Grouped = false
		}
		if naive {
			res.NaiveModel, res.NaiveCoeff, res.NaivePlot = cf.Model, cf.Coeff, plot
			res.NaiveTree = prof.Tree()
		} else {
			res.IdealModel, res.IdealCoeff, res.IdealPlot = cf.Model, cf.Coeff, plot
		}
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// §4.3: paradigm agnosticism.

// ParadigmResult compares the imperative and functional insertion sorts.
//
// The correspondence the experiment establishes:
//
//   - repetition structure: the imperative sort has two nested loops; the
//     functional sort has two nested recursions (sort ▷ insert);
//   - per-repetition cost: the imperative inner loop and the functional
//     insert both do ≈ k/2 steps per invocation on a size-k prefix
//     (linear), and the total algorithmic steps of both sorts grow as
//     ≈ 0.25·n² on random input;
//   - classification differs *correctly*: the imperative sort modifies
//     the input structure in place, while the value-copying functional
//     sort constructs a fresh accumulator structure — which is why the
//     shared-input grouping keeps sort and insert separate there (the
//     deviation from the paper's "almost identical" is documented in
//     DESIGN.md).
type ParadigmResult struct {
	// Imperative sort (grouped algorithm, quadratic over input size).
	ImperativeModel      string
	ImperativeCoeff      float64
	ImperativeTotalSteps int64

	// Functional insert repetition (linear per invocation over the
	// accumulator size, quadratic in total).
	FunctionalInsertModel string
	FunctionalInsertCoeff float64
	FunctionalTotalSteps  int64
	// FunctionalDescription is insert's classification (a Construction).
	FunctionalDescription string
	// NestedRecursions reports whether insert's repetition node sits
	// below sort's in the repetition tree.
	NestedRecursions bool
}

// Paradigm profiles both implementations on random inputs and compares
// their algorithmic profiles.
func Paradigm(sw Sweep) (*ParadigmResult, error) {
	imp, err := Figure1(workloads.Random, sw)
	if err != nil {
		return nil, err
	}
	prof, err := algoprof.Run(workloads.FunctionalSort(workloads.Random, sw.MaxSize, sw.Step, sw.Reps),
		algoprof.Config{Seed: sw.Seed})
	if err != nil {
		return nil, err
	}
	res := &ParadigmResult{
		ImperativeModel: imp.Model,
		ImperativeCoeff: imp.Coeff,
	}
	for _, p := range imp.Points {
		res.ImperativeTotalSteps += p.Steps
	}

	insertAlg := prof.Find("FSort.insert/recursion")
	if insertAlg == nil {
		return nil, fmt.Errorf("paradigm: functional insert algorithm not found")
	}
	res.FunctionalTotalSteps = insertAlg.TotalSteps
	res.FunctionalDescription = insertAlg.Description
	for _, cf := range insertAlg.CostFunctions {
		if strings.Contains(cf.InputLabel, "FNode") {
			res.FunctionalInsertModel = cf.Model
			res.FunctionalInsertCoeff = cf.Coeff
		}
	}
	res.NestedRecursions = strings.Contains(prof.Tree(), "FSort.sort/recursion") &&
		treeHasNesting(prof.Tree(), "FSort.sort/recursion", "FSort.insert/recursion")
	return res, nil
}

// treeHasNesting checks that child is rendered at greater indentation
// somewhere after parent in the tree text.
func treeHasNesting(tree, parent, child string) bool {
	lines := strings.Split(tree, "\n")
	parentIndent := -1
	for _, l := range lines {
		trimmed := strings.TrimLeft(l, " ")
		indent := len(l) - len(trimmed)
		if strings.HasPrefix(trimmed, parent) {
			parentIndent = indent
			continue
		}
		if parentIndent >= 0 && strings.HasPrefix(trimmed, child) {
			return indent > parentIndent
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// §5: profiling overhead.

// ModeOverheadResult compares the profiling modes on the running example:
// plain execution, exact events mode (the default, and the paper's
// profiler), and path-counter mode. This is the §5 overhead measurement
// and its trajectory — events mode is the baseline the path-counter
// rewrite bends down.
type ModeOverheadResult struct {
	// PlainNs / EventsNs / PathsNs summarize each mode's wall times over
	// modeRounds interleaved rounds.
	PlainNs  benchfile.Summary `json:"plain_ns"`
	EventsNs benchfile.Summary `json:"events_ns"`
	PathsNs  benchfile.Summary `json:"paths_ns"`
	// PlainInstrs / EventsInstrs / PathsInstrs are executed instruction
	// counts (probes and superinstructions included).
	PlainInstrs  uint64 `json:"plain_instrs"`
	EventsInstrs uint64 `json:"events_instrs"`
	PathsInstrs  uint64 `json:"paths_instrs"`
	// EventsSlowdown and PathsSlowdown are the per-round ratios of each
	// profiled mode's time over plain execution's.
	EventsSlowdown benchfile.Summary `json:"events_slowdown"`
	PathsSlowdown  benchfile.Summary `json:"paths_slowdown"`
	// EventsOverPaths is the per-round events-mode over paths-mode time.
	// The two modes share the VM and the profiler core; what separates
	// them is the delivery and consumption of every access and iteration
	// event paths mode elides, so the ratio tracks the profiler's own
	// per-event cost with the VM's speed divided out.
	EventsOverPaths benchfile.Summary `json:"events_over_paths"`
}

// modeRounds is how many interleaved rounds ModeOverhead times. One
// round's three legs run back to back and see one machine state; on a
// shared host that state drifts over seconds, which a per-round ratio
// survives and a leg's absolute time does not.
const modeRounds = 49

// ModeOverhead measures the three modes interleaved over modeRounds
// rounds. Timing is done by the caller-provided clock.
func ModeOverhead(sw Sweep, now func() int64) (*ModeOverheadResult, error) {
	src := workloads.RunningExample(workloads.Random, sw.MaxSize, sw.Step, sw.Reps)
	prog, err := compiler.CompileSource(src)
	if err != nil {
		return nil, err
	}
	res := &ModeOverheadResult{}
	profiled := func(mode string, instrs *uint64) func() error {
		return func() error {
			p, err := algoprof.RunProgram(prog, algoprof.Config{Seed: sw.Seed, Mode: mode})
			if err != nil {
				return err
			}
			*instrs = p.Instructions
			return nil
		}
	}
	r, err := timeLegs(modeRounds, now, nil,
		leg{"plain", func() error {
			plain := vm.New(prog, vm.Config{Seed: sw.Seed})
			err := plain.Run()
			res.PlainInstrs = plain.InstrCount
			return err
		}},
		leg{"events", profiled(algoprof.ModeEvents, &res.EventsInstrs)},
		leg{"paths", profiled(algoprof.ModePaths, &res.PathsInstrs)},
	)
	if err != nil {
		return nil, err
	}
	res.PlainNs, res.EventsNs, res.PathsNs = r.ns("plain"), r.ns("events"), r.ns("paths")
	res.EventsSlowdown = r.ratio("events", "plain")
	res.PathsSlowdown = r.ratio("paths", "plain")
	res.EventsOverPaths = r.ratio("events", "paths")
	return res, nil
}

// ---------------------------------------------------------------------------
// Goldsmith baseline comparison.

// GoldsmithResult contrasts the basic-block baseline with algorithmic
// profiling on the same program.
type GoldsmithResult struct {
	// TopModel is the growth model of the steepest basic block.
	TopModel string
	// Report is the rendered top-5 listing.
	Report string
	// ManualRuns is the number of runs the user had to label with input
	// sizes by hand (algorithmic profiling needs zero).
	ManualRuns int
}

// Goldsmith runs the basic-block baseline over a size sweep of single-sort
// programs, supplying the input sizes manually as the FSE'07 approach
// requires.
func Goldsmith(sw Sweep) (*GoldsmithResult, error) {
	var runs []bbprof.Run
	for size := 4; size < sw.MaxSize; size += sw.Step {
		src := workloads.RunningExample(workloads.Random, size+1, max(size, 1), 1)
		prog, err := compiler.CompileSource(src)
		if err != nil {
			return nil, err
		}
		p := bbprof.New(prog)
		machine := vm.New(prog, vm.Config{InstrHook: p.Hook, Seed: sw.Seed})
		if err := machine.Run(); err != nil {
			return nil, err
		}
		runs = append(runs, p.Snapshot(size))
	}
	if len(runs) < 3 {
		return nil, fmt.Errorf("goldsmith: need at least 3 runs")
	}
	fits := bbprof.FitAll(runs)
	if len(fits) == 0 {
		return nil, fmt.Errorf("goldsmith: no fitted locations")
	}
	// Render against the last program (all runs share the same code).
	src := workloads.RunningExample(workloads.Random, 8, 7, 1)
	prog, err := compiler.CompileSource(src)
	if err != nil {
		return nil, err
	}
	return &GoldsmithResult{
		TopModel:   fits[0].Fit.Model.String(),
		Report:     bbprof.Render(prog, fits, 5),
		ManualRuns: len(runs),
	}, nil
}

// ---------------------------------------------------------------------------
// Ablations.

// AblationSizeStrategyResult compares capacity vs unique-element sizing on
// the partially used array of Listing 4.
type AblationSizeStrategyResult struct {
	CapacitySize int
	UniqueSize   int
}

// AblationSizeStrategy runs Listing 4 under both strategies.
func AblationSizeStrategy() (*AblationSizeStrategyResult, error) {
	res := &AblationSizeStrategyResult{}
	for _, unique := range []bool{false, true} {
		cfg := algoprof.Config{}
		if unique {
			cfg.SizeStrategy = algoprof.UniqueElements
		}
		prof, err := algoprof.Run(workloads.Listing4(12), cfg)
		if err != nil {
			return nil, err
		}
		p, _ := prof.Raw()
		reg := p.Registry()
		maxArr := 0
		for _, id := range reg.CanonicalIDs() {
			in := reg.Input(id)
			if strings.Contains(in.Label(), "array") && in.MaxSize > maxArr {
				maxArr = in.MaxSize
			}
		}
		if unique {
			res.UniqueSize = maxArr
		} else {
			res.CapacitySize = maxArr
		}
	}
	return res, nil
}

// AblationIdentifyResult compares the deferred identification optimization
// with eager per-access snapshots on a construction-heavy workload.
type AblationIdentifyResult struct {
	DeferredNs benchfile.Summary
	EagerNs    benchfile.Summary
	// SameInputs reports whether both modes identified the same number
	// of inputs with the same maximum size.
	SameInputs bool
}

// AblationIdentify measures both identification modes, one run each.
func AblationIdentify(size int, now func() int64) (*AblationIdentifyResult, error) {
	src := workloads.Listing4(size)
	var profs [2]*algoprof.Profile
	identify := func(eager bool, prof **algoprof.Profile) func() error {
		return func() (err error) {
			*prof, err = algoprof.Run(src, algoprof.Config{EagerIdentify: eager})
			return err
		}
	}
	r, err := timeLegs(1, now, nil,
		leg{"deferred", identify(false, &profs[0])},
		leg{"eager", identify(true, &profs[1])},
	)
	if err != nil {
		return nil, err
	}
	type outcome struct {
		inputs, maxSize int
	}
	var outs [2]outcome
	for i, prof := range profs {
		p, _ := prof.Raw()
		reg := p.Registry()
		outs[i].inputs = len(reg.CanonicalIDs())
		for _, id := range reg.CanonicalIDs() {
			if s := reg.Input(id).MaxSize; s > outs[i].maxSize {
				outs[i].maxSize = s
			}
		}
	}
	return &AblationIdentifyResult{
		DeferredNs: r.ns("deferred"),
		EagerNs:    r.ns("eager"),
		SameInputs: outs[0] == outs[1],
	}, nil
}

// ---------------------------------------------------------------------------
// Extension: sort crossover study.

// CrossoverResult compares insertion sort against merge sort on the same
// input distribution: the per-run cost functions and the input size at
// which merge sort overtakes insertion sort.
type CrossoverResult struct {
	InsertionModel string
	InsertionCoeff float64
	MergeModel     string
	MergeCoeff     float64
	// CrossoverN is the smallest size at which the fitted merge-sort cost
	// drops below the fitted insertion-sort cost (0 if never within 4×
	// the sweep).
	CrossoverN int
	// InsertionAtMax and MergeAtMax evaluate both fits at the sweep's
	// largest size.
	InsertionAtMax float64
	MergeAtMax     float64
}

// Crossover profiles the merge-vs-insertion comparison program and
// derives the crossover point from the fitted cost functions.
func Crossover(sw Sweep) (*CrossoverResult, error) {
	prof, err := algoprof.Run(workloads.MergeVsInsertion(sw.MaxSize, sw.Step, sw.Reps),
		algoprof.Config{Seed: sw.Seed})
	if err != nil {
		return nil, err
	}
	ins := prof.Find("List.sort/loop1")
	if ins == nil {
		return nil, fmt.Errorf("crossover: insertion sort algorithm missing")
	}
	mrg := prof.Find("MSort.sort/recursion")
	if mrg == nil {
		return nil, fmt.Errorf("crossover: merge sort algorithm missing")
	}
	res := &CrossoverResult{}
	var insF, mrgF *algoprof.CostFunction
	for i := range ins.CostFunctions {
		if strings.Contains(ins.CostFunctions[i].InputLabel, "Node") {
			insF = &ins.CostFunctions[i]
		}
	}
	for i := range mrg.CostFunctions {
		if strings.Contains(mrg.CostFunctions[i].InputLabel, "MNode") {
			mrgF = &mrg.CostFunctions[i]
		}
	}
	if insF == nil || mrgF == nil {
		return nil, fmt.Errorf("crossover: cost functions missing (ins=%v mrg=%v)", insF, mrgF)
	}
	res.InsertionModel, res.InsertionCoeff = insF.Model, insF.Coeff
	res.MergeModel, res.MergeCoeff = mrgF.Model, mrgF.Coeff

	evalCF := func(cf *algoprof.CostFunction, n float64) float64 {
		var base float64
		switch cf.Model {
		case "1":
			base = 1
		case "log n":
			base = math.Log2(n + 1)
		case "n":
			base = n
		case "n log n":
			base = n * math.Log2(n+1)
		case "n^2":
			base = n * n
		case "n^3":
			base = n * n * n
		}
		return cf.Coeff*base + cf.Intercept
	}
	maxN := float64(sw.MaxSize)
	res.InsertionAtMax = evalCF(insF, maxN)
	res.MergeAtMax = evalCF(mrgF, maxN)
	// The crossover is the point past which merge sort stays ahead: one
	// plus the largest n at which insertion sort still wins. (Fitted
	// intercepts can create a spurious extra intersection at tiny n.)
	for n := 2; n <= sw.MaxSize*4; n++ {
		fn := float64(n)
		if evalCF(insF, fn) < evalCF(mrgF, fn) {
			res.CrossoverN = n + 1
		}
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Overhead scaling.

// OverheadPoint is the profiling slowdown at one input size, measured
// both with the incremental snapshot memo (the default) and without it
// (the paper's measured behaviour, which §5 calls to optimize).
type OverheadPoint struct {
	Size       int               `json:"size"`
	PlainNs    benchfile.Summary `json:"plain_ns"`
	ProfiledNs benchfile.Summary `json:"profiled_ns"`
	// NoMemoNs is the profiled wall time with snapshot memoization
	// disabled: every observation re-traverses its O(size) structure.
	NoMemoNs benchfile.Summary `json:"no_memo_ns"`
	// Slowdown and NoMemoSlowdown are the per-round ratios of each
	// profiled leg's time over plain execution's; MemoSpeedup is the
	// per-round no-memo over memoized time.
	Slowdown       benchfile.Summary `json:"slowdown"`
	NoMemoSlowdown benchfile.Summary `json:"no_memo_slowdown"`
	MemoSpeedup    benchfile.Summary `json:"memo_speedup"`
}

// sweepRounds is how many interleaved rounds each OverheadSweep point
// times.
const sweepRounds = 3

// OverheadSweep measures the profiling slowdown at increasing input sizes:
// without memoization, snapshots cost O(structure size) per repetition
// invocation, so the relative overhead grows with input size — the
// incremental-snapshot ablation quantifies what the memo buys. The
// workload is the running example in its sort-once-query-many form
// (RunningExampleScanned) on sorted input: sorted input keeps the sort's
// write-heavy phase linear (a written structure must be re-traversed in
// both modes), so the repeated read-only scans — the regime incremental
// snapshots target — carry the snapshot cost. The sizes run one after
// another, so no point's legs share the machine with another point's.
func OverheadSweep(sizes []int, seed uint64, now func() int64) ([]OverheadPoint, error) {
	var out []OverheadPoint
	for _, size := range sizes {
		src := workloads.RunningExampleScanned(workloads.Sorted, size+1, max(size, 1), 2, 4*size)
		prog, err := compiler.CompileSource(src)
		if err != nil {
			return nil, err
		}
		profiled := func(cfg algoprof.Config) func() error {
			return func() error {
				_, err := algoprof.RunProgram(prog, cfg)
				return err
			}
		}
		r, err := timeLegs(sweepRounds, now, nil,
			leg{"plain", func() error { return vm.New(prog, vm.Config{Seed: seed}).Run() }},
			leg{"profiled", profiled(algoprof.Config{Seed: seed})},
			leg{"no-memo", profiled(algoprof.Config{Seed: seed, DisableMemo: true})},
		)
		if err != nil {
			return nil, err
		}
		out = append(out, OverheadPoint{
			Size:           size,
			PlainNs:        r.ns("plain"),
			ProfiledNs:     r.ns("profiled"),
			NoMemoNs:       r.ns("no-memo"),
			Slowdown:       r.ratio("profiled", "plain"),
			NoMemoSlowdown: r.ratio("no-memo", "plain"),
			MemoSpeedup:    r.ratio("no-memo", "profiled"),
		})
	}
	return out, nil
}

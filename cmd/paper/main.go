// Command paper regenerates every table and figure of the AlgoProf paper
// (PLDI'12) on the MJ substrate and prints them in paper-style text form.
//
// Usage:
//
//	paper [-j N] [fig1|fig2|fig3|table1|fig4|fig5|paradigm|listing3|listing4|listing5|overhead|goldsmith|ablations|crossover|compare|all]
//	paper bench [-out BENCH_overhead.json] [-pipeline-out BENCH_pipeline.json]
//
// -j bounds the worker pool used for sweep points and, under "all", for
// whole sections; output ordering is deterministic for every -j. The
// bench subcommand writes machine-readable overhead/sweep timings
// (including the snapshot-memoization ablation) for perf tracking, plus
// the event-transport benchmark (three dedicated passes vs one fan-out
// pass, across workload sizes).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"algoprof"
	"algoprof/internal/experiments"
	"algoprof/internal/trace"
	"algoprof/internal/workloads"
)

var sweep = experiments.DefaultSweep

// traceOut, when set, makes the compare section also capture its combined
// three-backend pass as a persistent trace file (see internal/trace).
var traceOut string

func main() {
	maxSize := flag.Int("maxsize", sweep.MaxSize, "largest input size in sweeps")
	step := flag.Int("step", sweep.Step, "size step in sweeps")
	reps := flag.Int("reps", sweep.Reps, "repetitions per size")
	seed := flag.Uint64("seed", sweep.Seed, "random seed")
	jobs := flag.Int("j", 0, "parallel sweep workers (0 = GOMAXPROCS)")
	deadline := flag.Duration("deadline", 0, "stop sweeps after this wall-clock budget; finished sections still print (0 = unlimited)")
	flag.StringVar(&traceOut, "trace-out", "",
		"capture the compare section's combined pass as a trace file for offline replay")
	flag.Parse()
	sweep = experiments.Sweep{MaxSize: *maxSize, Step: *step, Reps: *reps, Seed: *seed}
	experiments.SetParallelism(*jobs)
	if *deadline > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *deadline)
		defer cancel()
		experiments.SetContext(ctx)
	}

	what := "all"
	if flag.NArg() > 0 {
		what = flag.Arg(0)
	}
	if what == "bench" {
		if err := bench(flag.Args()[1:]); err != nil {
			fatal(err)
		}
		return
	}
	sections := map[string]func(io.Writer) error{
		"fig1":      fig1,
		"fig2":      fig2,
		"fig3":      fig3,
		"table1":    table1,
		"fig4":      fig45,
		"fig5":      fig45,
		"paradigm":  paradigm,
		"listing3":  listing3,
		"listing4":  listing4,
		"listing5":  listing5,
		"overhead":  overhead,
		"goldsmith": goldsmith,
		"ablations": ablations,
		"crossover": crossover,
		"compare":   compare,
	}
	order := []string{"fig1", "fig2", "fig3", "table1", "fig4", "paradigm",
		"listing3", "listing4", "listing5", "overhead", "goldsmith", "ablations",
		"crossover", "compare"}

	if what == "all" {
		if err := runAll(order, sections); err != nil {
			fatal(err)
		}
		return
	}
	fn, ok := sections[what]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown section %q; options: %v, bench, or all\n", what, order)
		os.Exit(2)
	}
	if err := fn(os.Stdout); err != nil {
		fatal(err)
	}
}

// runAll executes every section concurrently (bounded by the worker-pool
// parallelism), buffering each section's output so the printed order is
// the paper's order regardless of completion order.
func runAll(order []string, sections map[string]func(io.Writer) error) error {
	bufs := make([]bytes.Buffer, len(order))
	errs := make([]error, len(order))
	sem := make(chan struct{}, experiments.Parallelism())
	var wg sync.WaitGroup
	for i, name := range order {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = sections[name](&bufs[i])
		}()
	}
	wg.Wait()
	for i := range order {
		if errs[i] != nil {
			return errs[i]
		}
		os.Stdout.Write(bufs[i].Bytes())
	}
	return nil
}

func header(w io.Writer, s string) {
	fmt.Fprintf(w, "\n================ %s ================\n\n", s)
}

func fig1(w io.Writer) error {
	header(w, "Figure 1: cost functions of insertion sort")
	results, err := experiments.Figure1All(sweep)
	if err != nil {
		return err
	}
	for _, res := range results {
		fmt.Fprintf(w, "(%s input)  steps ≈ %s   [model %s, R2=%.3f, %d runs]\n",
			res.Order, res.Text, res.Model, res.R2, len(res.Points))
		fmt.Fprint(w, res.Plot)
		fmt.Fprintln(w)
	}
	return nil
}

func fig2(w io.Writer) error {
	header(w, "Figure 2: traditional profile (calling context tree)")
	res, err := experiments.Figure2(sweep)
	if err != nil {
		return err
	}
	fmt.Fprint(w, res.Tree)
	fmt.Fprintf(w, "\nhottest method (exclusive): %s\nmost called: %s\n",
		res.HottestExclusive, res.MostCalled)
	return nil
}

func fig3(w io.Writer) error {
	header(w, "Figure 3: algorithmic profile (repetition tree)")
	res, err := experiments.Figure3(sweep)
	if err != nil {
		return err
	}
	fmt.Fprint(w, res.Tree)
	fmt.Fprintf(w, "\nloops: %d; sort: %s (steps ≈ %.3g*%s); construct: %s\n",
		res.LoopCount, res.SortDescription, res.SortCoeff, res.SortModel, res.ConstructDescription)
	return nil
}

func table1(w io.Writer) error {
	header(w, "Table 1: data structure examples")
	outcomes, err := experiments.Table1(24, sweep.Seed)
	if err != nil {
		return err
	}
	fmt.Fprint(w, experiments.RenderTable1(outcomes))
	return nil
}

func fig45(w io.Writer) error {
	header(w, "Figures 4 & 5: growing an array-backed list")
	res, err := experiments.Figure45(sweep)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Repetition tree (naive growth):")
	fmt.Fprint(w, res.NaiveTree)
	fmt.Fprintf(w, "\nappend+grow grouped: %v\n", res.Grouped)
	fmt.Fprintf(w, "\nnaive (grow by 1):  cost ≈ %.3g*%s\n", res.NaiveCoeff, res.NaiveModel)
	fmt.Fprint(w, res.NaivePlot)
	fmt.Fprintf(w, "\nideal (doubling):   cost ≈ %.3g*%s\n", res.IdealCoeff, res.IdealModel)
	fmt.Fprint(w, res.IdealPlot)
	return nil
}

func paradigm(w io.Writer) error {
	header(w, "§4.3: paradigm agnosticism (imperative vs functional sort)")
	res, err := experiments.Paradigm(sweep)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "imperative sort:  model %-8s coeff %.3f  total steps %d\n",
		res.ImperativeModel, res.ImperativeCoeff, res.ImperativeTotalSteps)
	fmt.Fprintf(w, "functional insert: model %-8s coeff %.3f  total steps %d\n",
		res.FunctionalInsertModel, res.FunctionalInsertCoeff, res.FunctionalTotalSteps)
	fmt.Fprintf(w, "functional classification: %s\n", res.FunctionalDescription)
	fmt.Fprintf(w, "nested repetitions (sort ▷ insert): %v\n", res.NestedRecursions)
	return nil
}

func listing3(w io.Writer) error {
	header(w, "Listing 3: combining costs")
	prof, err := algoprof.Run(workloads.Listing3, algoprof.Config{Seed: sweep.Seed})
	if err != nil {
		return err
	}
	alg := prof.Find("Main.main/loop1")
	if alg == nil {
		return fmt.Errorf("nest algorithm missing")
	}
	fmt.Fprintf(w, "combined algorithmic steps of the nest: %d (3 outer + 0+1+2 inner)\n", alg.TotalSteps)
	return nil
}

func listing4(w io.Writer) error {
	header(w, "Listing 4: constructions measured at repetition exit")
	prof, err := algoprof.Run(workloads.Listing4(15), algoprof.Config{Seed: sweep.Seed})
	if err != nil {
		return err
	}
	fmt.Fprint(w, prof.Tree())
	return nil
}

func listing5(w io.Writer) error {
	header(w, "Listing 5: the array-nest grouping limitation")
	prof, err := algoprof.Run(workloads.Listing5, algoprof.Config{Seed: sweep.Seed})
	if err != nil {
		return err
	}
	fmt.Fprint(w, prof.Tree())
	outer := prof.Find("Main.main/loop1")
	fmt.Fprintf(w, "\nouter loop data-structure-less (not grouped): %v\n", outer != nil && outer.DataStructureLess)
	return nil
}

func overhead(w io.Writer) error {
	header(w, "§5: profiling overhead")
	res, err := experiments.Overhead(sweep, func() int64 { return time.Now().UnixNano() })
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "plain run:    %12d instructions  %10.2fms\n",
		res.PlainInstrs, float64(res.PlainNs)/1e6)
	fmt.Fprintf(w, "profiled run: %12d instructions  %10.2fms\n",
		res.ProfiledInstrs, float64(res.ProfiledNs)/1e6)
	fmt.Fprintf(w, "slowdown: %.1fx\n", res.Slowdown())

	fmt.Fprintln(w, "\nslowdown by input size (without memoization, snapshots cost O(size) per invocation):")
	pts, err := experiments.OverheadSweep([]int{16, 64, 256}, sweep.Seed,
		func() int64 { return time.Now().UnixNano() })
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "         memoized   no-memo")
	for _, p := range pts {
		fmt.Fprintf(w, "  n=%-5d %6.1fx  %6.1fx\n", p.Size, p.Slowdown(), p.NoMemoSlowdown())
	}

	fmt.Fprintln(w, "\nslowdown by profiling mode (path counters replace per-access/per-iteration events):")
	mv, err := experiments.ModeOverhead(sweep, func() int64 { return time.Now().UnixNano() })
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  plain:  %12d instructions  %10.2fms\n", mv.PlainInstrs, float64(mv.PlainNs)/1e6)
	fmt.Fprintf(w, "  events: %12d instructions  %10.2fms  %5.2fx\n",
		mv.EventsInstrs, float64(mv.EventsNs)/1e6, mv.EventsSlowdown())
	fmt.Fprintf(w, "  paths:  %12d instructions  %10.2fms  %5.2fx\n",
		mv.PathsInstrs, float64(mv.PathsNs)/1e6, mv.PathsSlowdown())
	fmt.Fprintf(w, "  events/paths per round: median %.2fx (quartiles %.2f–%.2f)\n",
		mv.EventsOverPaths[1], mv.EventsOverPaths[0], mv.EventsOverPaths[2])
	return nil
}

func goldsmith(w io.Writer) error {
	header(w, "Baseline: Goldsmith et al. basic-block profiling")
	res, err := experiments.Goldsmith(sweep)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "manual input-size annotations required: %d runs\n", res.ManualRuns)
	fmt.Fprintf(w, "steepest location model: %s\n\n", res.TopModel)
	fmt.Fprint(w, res.Report)
	return nil
}

func ablations(w io.Writer) error {
	header(w, "Ablations")
	ss, err := experiments.AblationSizeStrategy()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "array size strategy on Listing 4's 1000-slot array (10 used):\n")
	fmt.Fprintf(w, "  capacity strategy: %d   unique-element strategy: %d\n", ss.CapacitySize, ss.UniqueSize)

	id, err := experiments.AblationIdentify(400, func() int64 { return time.Now().UnixNano() })
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ninput identification on a 400-node construction:\n")
	fmt.Fprintf(w, "  deferred (paper's optimization): %8.2fms\n", float64(id.DeferredNs)/1e6)
	fmt.Fprintf(w, "  eager (snapshot per access):     %8.2fms\n", float64(id.EagerNs)/1e6)
	fmt.Fprintf(w, "  same results: %v\n", id.SameInputs)
	return nil
}

func crossover(w io.Writer) error {
	header(w, "Extension: insertion sort vs merge sort crossover")
	res, err := experiments.Crossover(sweep)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "insertion sort: steps ≈ %.3g*%s\n", res.InsertionCoeff, res.InsertionModel)
	fmt.Fprintf(w, "merge sort:     steps ≈ %.3g*%s\n", res.MergeCoeff, res.MergeModel)
	fmt.Fprintf(w, "at n=%d: insertion %.0f vs merge %.0f steps\n",
		sweep.MaxSize, res.InsertionAtMax, res.MergeAtMax)
	if res.CrossoverN > 0 {
		fmt.Fprintf(w, "crossover: merge sort wins above n ≈ %d\n", res.CrossoverN)
	}
	return nil
}

func compare(w io.Writer) error {
	header(w, "Single-pass backend comparison (event fan-out)")
	res, err := experiments.Compare(sweep)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workload executions needed: %d (was 3 before the pipelined transport)\n", res.Passes)
	fmt.Fprintf(w, "algorithmic profile: sort steps ≈ %.3g*%s\n", res.SortCoeff, res.SortModel)
	fmt.Fprintf(w, "CCT baseline:        hottest method (exclusive) %s\n", res.HottestExclusive)
	fmt.Fprintf(w, "basic-block baseline: hottest block %s\n", res.TopBlock)
	if traceOut != "" {
		return captureTrace(w)
	}
	return nil
}

// captureTrace records the running example's combined three-backend pass
// to -trace-out, verifies the trace replays to the identical result, and
// reports the file's stats.
func captureTrace(w io.Writer) error {
	src := workloads.RunningExample(workloads.Random, sweep.MaxSize, sweep.Step, sweep.Reps)
	f, err := os.Create(traceOut)
	if err != nil {
		return err
	}
	live, err := experiments.RecordBackends(src, sweep.Seed, f, trace.WriterOptions{Compress: true})
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	r, err := trace.Open(traceOut)
	if err != nil {
		return err
	}
	replayed, err := experiments.ReplayBackends(src, r)
	if err != nil {
		return err
	}
	st := r.Stats()
	fi, err := os.Stat(traceOut)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ntrace captured: %s (%d bytes, %d frames, %d records, %d instructions)\n",
		traceOut, fi.Size(), st.Frames, st.Records, st.Instructions)
	fmt.Fprintf(w, "offline replay == live recording (byte-identical): %v\n",
		experiments.BackendsFingerprint(replayed) == experiments.BackendsFingerprint(live))
	return nil
}

// benchHeader is the provenance header shared by every BENCH_*.json
// writer: generation time, the actual GOMAXPROCS of the run, and the trace
// format version the build writes, recorded once and the same way
// everywhere.
type benchHeader struct {
	GeneratedUnix      int64 `json:"generated_unix"`
	GoMaxProcs         int   `json:"go_maxprocs"`
	TraceFormatVersion int   `json:"trace_format_version"`
}

func newBenchHeader() benchHeader {
	return benchHeader{
		GeneratedUnix:      time.Now().Unix(),
		GoMaxProcs:         runtime.GOMAXPROCS(0),
		TraceFormatVersion: trace.Version,
	}
}

// benchModes is the per-mode overhead section of BENCH_overhead.json: the
// slowdown trajectory events → paths the path-counter mode exists for, and
// the per-round events-over-paths quartiles bench -check gates on.
type benchModes struct {
	PlainNs           int64   `json:"plain_ns"`
	EventsNs          int64   `json:"events_ns"`
	PathsNs           int64   `json:"paths_ns"`
	PlainInstrs       uint64  `json:"plain_instrs"`
	EventsInstrs      uint64  `json:"events_instrs"`
	PathsInstrs       uint64  `json:"paths_instrs"`
	EventsSlowdown    float64 `json:"events_slowdown"`
	PathsSlowdown     float64 `json:"paths_slowdown"`
	EventsOverPathsQ1 float64 `json:"events_over_paths_q1"`
	EventsOverPaths   float64 `json:"events_over_paths"`
	EventsOverPathsQ3 float64 `json:"events_over_paths_q3"`
}

// benchReport is the machine-readable perf baseline written by the bench
// subcommand — the trajectory file future changes compare against.
type benchReport struct {
	benchHeader
	Parallelism int `json:"parallelism"`
	Sweep       struct {
		MaxSize int    `json:"max_size"`
		Step    int    `json:"step"`
		Reps    int    `json:"reps"`
		Seed    uint64 `json:"seed"`
	} `json:"sweep"`
	Overhead struct {
		PlainInstrs    uint64  `json:"plain_instrs"`
		ProfiledInstrs uint64  `json:"profiled_instrs"`
		PlainNs        int64   `json:"plain_ns"`
		ProfiledNs     int64   `json:"profiled_ns"`
		Slowdown       float64 `json:"slowdown"`
	} `json:"overhead"`
	Modes  benchModes   `json:"mode_overhead"`
	Points []benchPoint `json:"overhead_sweep"`
}

type benchPoint struct {
	Size           int     `json:"size"`
	PlainNs        int64   `json:"plain_ns"`
	ProfiledNs     int64   `json:"profiled_ns"`
	NoMemoNs       int64   `json:"no_memo_ns"`
	Slowdown       float64 `json:"slowdown"`
	NoMemoSlowdown float64 `json:"no_memo_slowdown"`
	MemoSpeedup    float64 `json:"memo_speedup"`
}

// pipelineReport is the machine-readable transport benchmark written to
// BENCH_pipeline.json: three dedicated passes vs one fan-out pass, and the
// core profiled alone, across workload sizes.
type pipelineReport struct {
	benchHeader
	Seed   uint64          `json:"seed"`
	Points []pipelinePoint `json:"points"`
}

type pipelinePoint struct {
	Size         int     `json:"size"`
	Passes       int     `json:"scan_passes"`
	ThreePassNs  int64   `json:"three_pass_ns"`
	SyncFanoutNs int64   `json:"sync_fanout_ns"`
	SoloSyncNs   int64   `json:"solo_sync_ns"`
	Speedup      float64 `json:"speedup_vs_three_pass"`
	Identical    bool    `json:"identical"`
}

// replayReport is the machine-readable replay/diff throughput benchmark
// written to BENCH_replay.json: sequential vs parallel trace replay (with
// the byte-identity assertion), end-to-end parallel profile replay, and
// the Merkle-indexed diff against the full scan it replaces.
type replayReport struct {
	benchHeader
	Parallelism int    `json:"parallelism"`
	Seed        uint64 `json:"seed"`
	experiments.ReplayBenchResult
}

// bench measures overhead and the memoization ablation and writes the
// results as JSON (the BENCH_overhead.json perf baseline), plus the event
// transport benchmark (BENCH_pipeline.json) and the parallel-replay/diff
// benchmark (BENCH_replay.json).
func bench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	out := fs.String("out", "BENCH_overhead.json", "output file (\"-\" = stdout, \"\" = skip)")
	pipeOut := fs.String("pipeline-out", "BENCH_pipeline.json",
		"pipeline benchmark output file (\"-\" = stdout, \"\" = skip)")
	replayOut := fs.String("replay-out", "BENCH_replay.json",
		"parallel-replay benchmark output file (\"-\" = stdout, \"\" = skip)")
	check := fs.Bool("check", false,
		"regression gate: measure the per-mode overhead and parallel-replay speedup fresh and fail when either regressed; writes nothing")
	if err := fs.Parse(args); err != nil {
		return err
	}

	now := func() int64 { return time.Now().UnixNano() }
	if *check {
		return benchCheck(*out, now)
	}
	if *out == "" {
		if *pipeOut != "" {
			if err := benchPipeline(*pipeOut, now); err != nil {
				return err
			}
		}
		if *replayOut != "" {
			return benchReplay(*replayOut, now)
		}
		return nil
	}
	var rep benchReport
	rep.benchHeader = newBenchHeader()
	rep.Parallelism = experiments.Parallelism()
	rep.Sweep.MaxSize = sweep.MaxSize
	rep.Sweep.Step = sweep.Step
	rep.Sweep.Reps = sweep.Reps
	rep.Sweep.Seed = sweep.Seed

	ov, err := experiments.Overhead(sweep, now)
	if err != nil {
		return err
	}
	rep.Overhead.PlainInstrs = ov.PlainInstrs
	rep.Overhead.ProfiledInstrs = ov.ProfiledInstrs
	rep.Overhead.PlainNs = ov.PlainNs
	rep.Overhead.ProfiledNs = ov.ProfiledNs
	rep.Overhead.Slowdown = ov.Slowdown()

	mv, err := experiments.ModeOverhead(sweep, now)
	if err != nil {
		return err
	}
	rep.Modes = modeSection(mv)

	pts, err := experiments.OverheadSweep([]int{16, 64, 256, 512}, sweep.Seed, now)
	if err != nil {
		return err
	}
	for _, p := range pts {
		bp := benchPoint{
			Size:           p.Size,
			PlainNs:        p.PlainNs,
			ProfiledNs:     p.ProfiledNs,
			NoMemoNs:       p.NoMemoNs,
			Slowdown:       p.Slowdown(),
			NoMemoSlowdown: p.NoMemoSlowdown(),
		}
		if p.ProfiledNs > 0 {
			bp.MemoSpeedup = float64(p.NoMemoNs) / float64(p.ProfiledNs)
		}
		rep.Points = append(rep.Points, bp)
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "-" {
		if _, err := os.Stdout.Write(data); err != nil {
			return err
		}
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d sweep points)\n", *out, len(rep.Points))
	}

	if *pipeOut != "" {
		if err := benchPipeline(*pipeOut, now); err != nil {
			return err
		}
	}
	if *replayOut != "" {
		return benchReplay(*replayOut, now)
	}
	return nil
}

// modeSection maps a measured per-mode overhead result to its report
// section.
func modeSection(mv *experiments.ModeOverheadResult) benchModes {
	return benchModes{
		PlainNs:           mv.PlainNs,
		EventsNs:          mv.EventsNs,
		PathsNs:           mv.PathsNs,
		PlainInstrs:       mv.PlainInstrs,
		EventsInstrs:      mv.EventsInstrs,
		PathsInstrs:       mv.PathsInstrs,
		EventsSlowdown:    mv.EventsSlowdown(),
		PathsSlowdown:     mv.PathsSlowdown(),
		EventsOverPathsQ1: mv.EventsOverPaths[0],
		EventsOverPaths:   mv.EventsOverPaths[1],
		EventsOverPathsQ3: mv.EventsOverPaths[2],
	}
}

// eventsOverPathsTolerance is how far bench -check lets the fresh median
// per-round events-over-paths ratio rise above the committed baseline's
// (1.42). It comes from the measured spread on the 2-core reference host:
// 14 runs of the unchanged tree gave medians of 1.32–1.45, and a fixed
// per-event cost in the core worth +22% to +31% of its self time
// (events − plain) gave 1.55–1.66 in every run.
const eventsOverPathsTolerance = 0.07

// benchCheck is the bench-smoke regression gate on the profiler's own
// cost: it re-measures the per-mode overhead and fails when the median
// per-round events-mode over paths-mode time exceeds the committed
// baseline's by more than eventsOverPathsTolerance. Both modes run the
// same VM, so a faster interpreter cannot trip the gate the way it trips
// a slowdown over plain execution, whose denominator it shrinks.
func benchCheck(baselinePath string, now func() int64) error {
	mv, err := experiments.ModeOverhead(sweep, now)
	if err != nil {
		return err
	}
	fresh := mv.EventsOverPaths[1]
	fmt.Printf("mode overhead: plain=%v events=%v (%.2fx) paths=%v (%.2fx) events/paths=%.3f [%.3f, %.3f]\n",
		time.Duration(mv.PlainNs), time.Duration(mv.EventsNs), mv.EventsSlowdown(),
		time.Duration(mv.PathsNs), mv.PathsSlowdown(), fresh, mv.EventsOverPaths[0], mv.EventsOverPaths[2])

	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("bench -check: no baseline: %w", err)
	}
	var base benchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("bench -check: bad baseline %s: %w", baselinePath, err)
	}
	if base.Modes.EventsOverPaths == 0 {
		return fmt.Errorf("bench -check: %s records no events_over_paths; run `paper bench` to record one", baselinePath)
	}
	limit := base.Modes.EventsOverPaths * (1 + eventsOverPathsTolerance)
	if fresh > limit {
		return fmt.Errorf("bench -check: events/paths time %.3f exceeds baseline %.3f by more than %.0f%% (limit %.3f)",
			fresh, base.Modes.EventsOverPaths, 100*eventsOverPathsTolerance, limit)
	}
	fmt.Printf("bench -check: ok (events/paths %.3f <= limit %.3f)\n", fresh, limit)
	return benchCheckReplay(now)
}

// benchCheckReplay is the parallel-replay half of the bench-smoke gate: a
// fresh quick measurement must replay byte-identically at every worker
// count and must not be slower than sequential at the largest one. The
// bar is 1.0x, not the committed baseline's speedup — shared runners vary
// too much in core count for an absolute ratio — so what it catches is
// parallelism that stopped paying at all, and any identity break.
func benchCheckReplay(now func() int64) error {
	res, err := experiments.ReplayBench(sweep, []int{1, 4}, now)
	if err != nil {
		return err
	}
	for _, p := range res.Points {
		fmt.Printf("replay -j %d: %v (%.2fx, identical=%v)\n",
			p.Workers, time.Duration(p.ReplayNs), p.Speedup, p.Identical)
		if !p.Identical {
			return fmt.Errorf("bench -check: parallel replay at -j %d diverged from sequential", p.Workers)
		}
	}
	if !res.ProfileIdentical {
		return fmt.Errorf("bench -check: parallel profile replay (-j %d) diverged from sequential", res.ProfileParWorkers)
	}
	last := res.Points[len(res.Points)-1]
	if cores := runtime.GOMAXPROCS(0); cores < 2 {
		// One core cannot make parallel decode pay; only identity is
		// checkable here. The speedup bar applies on multi-core runners.
		fmt.Printf("bench -check: ok (streams identical; GOMAXPROCS=%d, speedup bar skipped)\n", cores)
		return nil
	}
	if last.Speedup < 1.0 {
		return fmt.Errorf("bench -check: parallel replay at -j %d is slower than sequential (%.2fx < 1.0x)",
			last.Workers, last.Speedup)
	}
	fmt.Printf("bench -check: ok (replay -j %d %.2fx >= 1.0x, streams identical)\n", last.Workers, last.Speedup)
	return nil
}

// benchPipeline runs the event-transport benchmark and writes
// BENCH_pipeline.json.
func benchPipeline(out string, now func() int64) error {
	var rep pipelineReport
	rep.benchHeader = newBenchHeader()
	rep.Seed = sweep.Seed

	pts, err := experiments.PipelineBench([]int{16, 64, 128, 256}, sweep.Seed, now)
	if err != nil {
		return err
	}
	for _, p := range pts {
		rep.Points = append(rep.Points, pipelinePoint{
			Size:         p.Size,
			Passes:       p.Passes,
			ThreePassNs:  p.ThreePassNs,
			SyncFanoutNs: p.SyncFanoutNs,
			SoloSyncNs:   p.SoloSyncNs,
			Speedup:      p.Speedup(),
			Identical:    p.Identical,
		})
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d sizes)\n", out, len(rep.Points))
	return nil
}

// benchReplay runs the parallel-replay and Merkle-diff benchmark and
// writes BENCH_replay.json.
func benchReplay(out string, now func() int64) error {
	var rep replayReport
	rep.benchHeader = newBenchHeader()
	rep.Parallelism = experiments.Parallelism()
	rep.Seed = sweep.Seed

	res, err := experiments.ReplayBench(sweep, []int{1, 2, 4}, now)
	if err != nil {
		return err
	}
	rep.ReplayBenchResult = *res

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	best := 0.0
	for _, p := range res.Points {
		if p.Speedup > best {
			best = p.Speedup
		}
	}
	fmt.Printf("wrote %s (replay speedup up to %.2fx over %d frames, diff %.1fx)\n",
		out, best, res.Frames, res.DiffSpeedup)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paper:", err)
	os.Exit(1)
}

// Command paper regenerates every table and figure of the AlgoProf paper
// (PLDI'12) on the MJ substrate and prints them in paper-style text form.
//
// Usage:
//
//	paper [-deadline D] [fig1|fig2|fig3|table1|fig4|fig5|paradigm|listing3|listing4|listing5|overhead|goldsmith|ablations|crossover|compare|all]
//	paper bench [-out BENCH_overhead.json] [-pipeline-out BENCH_pipeline.json]
//	            [-replay-out BENCH_replay.json] [-check]
//
// Sections run one after another, and every sweep point within a section
// in order, so each timing is taken with nothing else running. The
// bench subcommand writes machine-readable overhead/sweep timings
// (including the snapshot-memoization ablation) for perf tracking, the
// event-transport benchmark (three dedicated passes vs one fan-out pass,
// across workload sizes) and the replay/diff benchmark, each a
// benchfile-shaped BENCH_*.json; -check gates the profiler's own cost
// against BENCH_overhead.json instead.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"algoprof"
	"algoprof/internal/benchfile"
	"algoprof/internal/experiments"
	"algoprof/internal/mj/compiler"
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
	deadline := flag.Duration("deadline", 0,
		"start no section once this wall-clock budget is spent; finished sections still print (0 = unlimited)")
	flag.StringVar(&traceOut, "trace-out", "",
		"capture the compare section's combined pass as a trace file for offline replay")
	flag.Parse()
	sweep = experiments.Sweep{MaxSize: *maxSize, Step: *step, Reps: *reps, Seed: *seed}
	start := time.Now()

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

	names := []string{what}
	if what == "all" {
		names = order
	} else if _, ok := sections[what]; !ok {
		fmt.Fprintf(os.Stderr, "unknown section %q; options: %v, bench, or all\n", what, order)
		os.Exit(2)
	}
	for _, name := range names {
		if *deadline > 0 && time.Since(start) > *deadline {
			fatal(fmt.Errorf("-deadline spent before section %s", name))
		}
		// A section that fails prints nothing, and the run stops there.
		var buf bytes.Buffer
		if err := sections[name](&buf); err != nil {
			fatal(err)
		}
		os.Stdout.Write(buf.Bytes())
	}
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
	now := func() int64 { return time.Now().UnixNano() }
	mv, err := experiments.ModeOverhead(sweep, now)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "plain run:    %12d instructions  %10.2fms\n",
		mv.PlainInstrs, mv.PlainNs.Median/1e6)
	fmt.Fprintf(w, "profiled run: %12d instructions  %10.2fms\n",
		mv.EventsInstrs, mv.EventsNs.Median/1e6)
	fmt.Fprintf(w, "slowdown: %.1fx\n", mv.EventsSlowdown.Median)

	fmt.Fprintln(w, "\nslowdown by input size (without memoization, snapshots cost O(size) per invocation):")
	pts, err := experiments.OverheadSweep([]int{16, 64, 256}, sweep.Seed, now)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "         memoized   no-memo")
	for _, p := range pts {
		fmt.Fprintf(w, "  n=%-5d %6.1fx  %6.1fx\n", p.Size, p.Slowdown.Median, p.NoMemoSlowdown.Median)
	}

	fmt.Fprintln(w, "\nslowdown by profiling mode (path counters replace per-access/per-iteration events):")
	fmt.Fprintf(w, "  plain:  %12d instructions  %10.2fms\n", mv.PlainInstrs, mv.PlainNs.Median/1e6)
	fmt.Fprintf(w, "  events: %12d instructions  %10.2fms  %5.2fx\n",
		mv.EventsInstrs, mv.EventsNs.Median/1e6, mv.EventsSlowdown.Median)
	fmt.Fprintf(w, "  paths:  %12d instructions  %10.2fms  %5.2fx\n",
		mv.PathsInstrs, mv.PathsNs.Median/1e6, mv.PathsSlowdown.Median)
	fmt.Fprintf(w, "  events/paths per round: median %.2fx (quartiles %.2f–%.2f)\n",
		mv.EventsOverPaths.Median, mv.EventsOverPaths.Q1, mv.EventsOverPaths.Q3)
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
	fmt.Fprintf(w, "  deferred (paper's optimization): %8.2fms\n", id.DeferredNs.Median/1e6)
	fmt.Fprintf(w, "  eager (snapshot per access):     %8.2fms\n", id.EagerNs.Median/1e6)
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
	fmt.Fprintf(w, "workload executions needed: %d\n", res.Passes)
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
	cfg := algoprof.Config{Seed: sweep.Seed, Backends: true}
	live, err := algoprof.Record(src, cfg, f, trace.WriterOptions{Compress: true})
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
	prog, err := compiler.CompileSource(src)
	if err != nil {
		return err
	}
	replayed, err := algoprof.ReplayProgram(prog, cfg, r)
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

// overheadReport is BENCH_overhead.json: the per-mode overhead on the
// running example (the §5 measurement, and the events/paths ratio bench
// -check gates on) and the snapshot-memoization ablation sweep.
type overheadReport struct {
	benchfile.Header
	Sweep  experiments.Sweep               `json:"sweep"`
	Modes  *experiments.ModeOverheadResult `json:"mode_overhead"`
	Points []experiments.OverheadPoint     `json:"overhead_sweep"`
}

// pipelineReport is BENCH_pipeline.json: three dedicated passes vs one
// fan-out pass, and the core profiled alone, across workload sizes.
type pipelineReport struct {
	benchfile.Header
	Seed   uint64                      `json:"seed"`
	Points []experiments.PipelinePoint `json:"points"`
}

// replayReport is BENCH_replay.json: raw trace replay, end-to-end profile
// replay (asserted identical to the recording's profile), and the bytes
// the footer diff reads against the full scan it replaces.
type replayReport struct {
	benchfile.Header
	Seed uint64 `json:"seed"`
	*experiments.ReplayBenchResult
}

// bench measures overhead and the memoization ablation and writes the
// results as JSON (the BENCH_overhead.json perf baseline), plus the event
// transport benchmark (BENCH_pipeline.json) and the replay/diff
// benchmark (BENCH_replay.json).
func bench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	out := fs.String("out", "BENCH_overhead.json", "output file (\"-\" = stdout, \"\" = skip)")
	pipeOut := fs.String("pipeline-out", "BENCH_pipeline.json",
		"pipeline benchmark output file (\"-\" = stdout, \"\" = skip)")
	replayOut := fs.String("replay-out", "BENCH_replay.json",
		"replay benchmark output file (\"-\" = stdout, \"\" = skip)")
	check := fs.Bool("check", false,
		"regression gate: measure the per-mode overhead fresh and fail when it regressed; writes nothing")
	if err := fs.Parse(args); err != nil {
		return err
	}

	now := func() int64 { return time.Now().UnixNano() }
	if *check {
		return benchCheck(*out, now)
	}
	if *out != "" {
		rep := overheadReport{Sweep: sweep}
		var err error
		if rep.Modes, err = experiments.ModeOverhead(sweep, now); err != nil {
			return err
		}
		if rep.Points, err = experiments.OverheadSweep([]int{16, 64, 256, 512}, sweep.Seed, now); err != nil {
			return err
		}
		if err := writeReport(*out, &rep, fmt.Sprintf("%d sweep points", len(rep.Points))); err != nil {
			return err
		}
	}
	if *pipeOut != "" {
		rep := pipelineReport{Seed: sweep.Seed}
		var err error
		if rep.Points, err = experiments.PipelineBench([]int{16, 64, 128, 256}, sweep.Seed, now); err != nil {
			return err
		}
		if err := writeReport(*pipeOut, &rep, fmt.Sprintf("%d sizes", len(rep.Points))); err != nil {
			return err
		}
	}
	if *replayOut != "" {
		res, err := experiments.ReplayBench(sweep, now)
		if err != nil {
			return err
		}
		rep := replayReport{Seed: sweep.Seed, ReplayBenchResult: res}
		return writeReport(*replayOut, &rep, fmt.Sprintf("replay %v, profile replay %v over %d frames, diff read %d of %d bytes",
			time.Duration(res.ReplayNs.Median), time.Duration(res.ProfileReplayNs.Median), res.Frames, res.DiffMerkleBytes, res.DiffFullBytes))
	}
	return nil
}

// writeReport writes one BENCH file and, unless it went to standard
// output, names it with a one-line summary.
func writeReport(path string, rep benchfile.Report, summary string) error {
	if err := benchfile.Write(path, rep); err != nil {
		return err
	}
	if path != "-" {
		fmt.Printf("wrote %s (%s)\n", path, summary)
	}
	return nil
}

// eventsOverPathsTolerance is how far bench -check lets the fresh median
// per-round events-over-paths ratio rise above the committed baseline's.
// It comes from the measured spread on the 2-core reference host: 14
// runs of the unchanged tree gave medians of 1.32–1.45 against a baseline
// of 1.42, and a fixed per-event cost in the core worth +22% to +31% of
// its self time (events − plain) gave 1.55–1.66 in every run.
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
	fresh := mv.EventsOverPaths.Median
	fmt.Printf("mode overhead: plain=%v events=%v (%.2fx) paths=%v (%.2fx) events/paths=%.3f [%.3f, %.3f]\n",
		time.Duration(mv.PlainNs.Median), time.Duration(mv.EventsNs.Median), mv.EventsSlowdown.Median,
		time.Duration(mv.PathsNs.Median), mv.PathsSlowdown.Median, fresh, mv.EventsOverPaths.Q1, mv.EventsOverPaths.Q3)

	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("bench -check: no baseline: %w", err)
	}
	var base overheadReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("bench -check: bad baseline %s: %w", baselinePath, err)
	}
	if base.Modes == nil || base.Modes.EventsOverPaths.Median == 0 {
		return fmt.Errorf("bench -check: %s records no events_over_paths median; run `paper bench` to record one", baselinePath)
	}
	baseline := base.Modes.EventsOverPaths.Median
	limit := baseline * (1 + eventsOverPathsTolerance)
	if fresh > limit {
		return fmt.Errorf("bench -check: events/paths time %.3f exceeds baseline %.3f by more than %.0f%% (limit %.3f)",
			fresh, baseline, 100*eventsOverPathsTolerance, limit)
	}
	fmt.Printf("bench -check: ok (events/paths %.3f <= limit %.3f)\n", fresh, limit)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paper:", err)
	os.Exit(1)
}

// Benchmarks regenerating every table and figure of the AlgoProf paper
// (PLDI'12). Each benchmark runs the full pipeline for its experiment —
// compile, instrument, execute under the profiler, group, classify, fit —
// validates the paper's qualitative result (shape of the cost function,
// classification, grouping), and reports the headline quantities as
// benchmark metrics.
//
// Run with:
//
//	go test -bench=. -benchmem
package algoprof_test

import (
	"math"
	"testing"
	"time"

	"algoprof"
	"algoprof/internal/experiments"
	"algoprof/internal/workloads"
)

var sweep = experiments.DefaultSweep

// BenchmarkFigure1 regenerates the three panels of Figure 1: the cost
// functions of insertion sort on random (≈0.25n²), sorted (≈n) and
// reversed (≈0.5n²) inputs.
func BenchmarkFigure1(b *testing.B) {
	cases := []struct {
		order     workloads.Order
		wantModel string
		wantCoeff float64
		tol       float64
	}{
		{workloads.Random, "n^2", 0.25, 0.08},
		{workloads.Sorted, "n", 1.0, 0.05},
		{workloads.Reversed, "n^2", 0.5, 0.05},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.order.String(), func(b *testing.B) {
			var res *experiments.Figure1Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = experiments.Figure1(tc.order, sweep)
				if err != nil {
					b.Fatal(err)
				}
			}
			if res.Model != tc.wantModel {
				b.Fatalf("model = %s, want %s", res.Model, tc.wantModel)
			}
			if math.Abs(res.Coeff-tc.wantCoeff) > tc.tol {
				b.Fatalf("coefficient = %.3f, want %.2f±%.2f", res.Coeff, tc.wantCoeff, tc.tol)
			}
			b.ReportMetric(res.Coeff, "coeff")
			b.ReportMetric(res.R2, "R2")
			b.ReportMetric(float64(len(res.Points)), "runs")
		})
	}
}

// BenchmarkFigure2 regenerates the traditional CCT baseline profile:
// List.sort is the hottest method by exclusive cost.
func BenchmarkFigure2(b *testing.B) {
	var res *experiments.Figure2Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Figure2(sweep)
		if err != nil {
			b.Fatal(err)
		}
	}
	if res.HottestExclusive != "List.sort" {
		b.Fatalf("hottest = %s, want List.sort", res.HottestExclusive)
	}
}

// BenchmarkFigure3 regenerates the annotated repetition tree: five loops,
// the sort algorithm a quadratic modification, the construct loop a
// construction.
func BenchmarkFigure3(b *testing.B) {
	var res *experiments.Figure3Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Figure3(sweep)
		if err != nil {
			b.Fatal(err)
		}
	}
	if res.LoopCount != 5 {
		b.Fatalf("loop count = %d, want 5", res.LoopCount)
	}
	if res.SortModel != "n^2" {
		b.Fatalf("sort model = %s, want n^2", res.SortModel)
	}
	b.ReportMetric(res.SortCoeff, "sort-coeff")
}

// BenchmarkTable1 regenerates the 18-row data-structure study and
// validates every I/S/G verdict.
func BenchmarkTable1(b *testing.B) {
	var outcomes []experiments.Table1Outcome
	var err error
	for i := 0; i < b.N; i++ {
		outcomes, err = experiments.Table1(24, sweep.Seed)
		if err != nil {
			b.Fatal(err)
		}
	}
	okCount := 0
	for _, o := range outcomes {
		if o.Result.OK() {
			okCount++
		} else {
			b.Errorf("%s: I=%v S=%v G=%v", o.Row.Name(),
				o.Result.InputsOK, o.Result.SizeOK, o.Result.GroupOK)
		}
	}
	b.ReportMetric(float64(okCount), "rows-ok")
}

// BenchmarkFigure4and5 regenerates the array-growth case study: append and
// grow group into one algorithm (Figure 4), naive growth is quadratic and
// doubling is linear (Figure 5).
func BenchmarkFigure4and5(b *testing.B) {
	var res *experiments.Figure45Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Figure45(sweep)
		if err != nil {
			b.Fatal(err)
		}
	}
	if !res.Grouped {
		b.Fatal("append+grow not grouped")
	}
	if res.NaiveModel != "n^2" {
		b.Fatalf("naive model = %s, want n^2", res.NaiveModel)
	}
	if res.IdealModel != "n" && res.IdealModel != "n log n" {
		b.Fatalf("ideal model = %s, want linear-ish", res.IdealModel)
	}
	b.ReportMetric(res.NaiveCoeff, "naive-coeff")
	b.ReportMetric(res.IdealCoeff, "ideal-coeff")
}

// BenchmarkParadigm regenerates §4.3: the functional sort shows the same
// repetition structure and total cost growth as the imperative one.
func BenchmarkParadigm(b *testing.B) {
	var res *experiments.ParadigmResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Paradigm(sweep)
		if err != nil {
			b.Fatal(err)
		}
	}
	if !res.NestedRecursions {
		b.Fatal("functional sort lost its nested repetition structure")
	}
	ratio := float64(res.FunctionalTotalSteps) / float64(res.ImperativeTotalSteps)
	if ratio < 0.5 || ratio > 2 {
		b.Fatalf("total-step ratio %.2f out of range", ratio)
	}
	b.ReportMetric(ratio, "fun/imp-steps")
}

// BenchmarkOverhead regenerates the §5 overhead observation: profiling
// multiplies execution cost.
func BenchmarkOverhead(b *testing.B) {
	var res *experiments.ModeOverheadResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.ModeOverhead(sweep, func() int64 { return time.Now().UnixNano() })
		if err != nil {
			b.Fatal(err)
		}
	}
	if res.EventsSlowdown.Median < 1 {
		b.Fatalf("slowdown %.2f", res.EventsSlowdown.Median)
	}
	b.ReportMetric(res.EventsSlowdown.Median, "slowdown-x")
	b.ReportMetric(float64(res.EventsInstrs)/float64(res.PlainInstrs), "instr-x")
}

// BenchmarkGoldsmith regenerates the FSE'07 baseline comparison: the
// basic-block profiler finds the quadratic block but needs manual input
// sizes for every run.
func BenchmarkGoldsmith(b *testing.B) {
	var res *experiments.GoldsmithResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Goldsmith(sweep)
		if err != nil {
			b.Fatal(err)
		}
	}
	if res.TopModel != "n^2" {
		b.Fatalf("top model = %s", res.TopModel)
	}
	b.ReportMetric(float64(res.ManualRuns), "manual-annotations")
}

// BenchmarkAblationSizeStrategy compares the two array size strategies of
// §3.4 on the partially used array of Listing 4.
func BenchmarkAblationSizeStrategy(b *testing.B) {
	var res *experiments.AblationSizeStrategyResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.AblationSizeStrategy()
		if err != nil {
			b.Fatal(err)
		}
	}
	if res.CapacitySize != 1000 || res.UniqueSize != 10 {
		b.Fatalf("sizes %d/%d, want 1000/10", res.CapacitySize, res.UniqueSize)
	}
	b.ReportMetric(float64(res.CapacitySize), "capacity")
	b.ReportMetric(float64(res.UniqueSize), "unique")
}

// BenchmarkAblationIdentify compares deferred identification (the paper's
// RemeasureInputs optimization) against eager per-access snapshots.
func BenchmarkAblationIdentify(b *testing.B) {
	modes := []struct {
		name  string
		eager bool
	}{{"deferred", false}, {"eager", true}}
	src := workloads.Listing4(400)
	for _, m := range modes {
		m := m
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := algoprof.Run(src, algoprof.Config{EagerIdentify: m.eager}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipeline measures the raw end-to-end profiling pipeline on the
// running example, for tracking the reproduction's own performance.
func BenchmarkPipeline(b *testing.B) {
	src := workloads.RunningExample(workloads.Random, 48, 6, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := algoprof.Run(src, algoprof.Config{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrossover regenerates the extension study: insertion sort vs
// merge sort cost functions and their crossover point.
func BenchmarkCrossover(b *testing.B) {
	var res *experiments.CrossoverResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Crossover(sweep)
		if err != nil {
			b.Fatal(err)
		}
	}
	if res.InsertionModel != "n^2" {
		b.Fatalf("insertion model %s", res.InsertionModel)
	}
	if res.MergeAtMax >= res.InsertionAtMax {
		b.Fatal("merge sort must win at the top of the sweep")
	}
	b.ReportMetric(float64(res.CrossoverN), "crossover-n")
	b.ReportMetric(res.InsertionCoeff, "insertion-coeff")
	b.ReportMetric(res.MergeCoeff, "merge-coeff")
}

// BenchmarkAblationSampling measures the §3.3 sampling optimization:
// memory per profiled run with full histories versus every-8th sampling,
// on a workload dominated by invocation records (many small repetitions).
func BenchmarkAblationSampling(b *testing.B) {
	src := `
class Main {
  static void work(int n) {
    for (int i = 0; i < n; i++) { }
  }
  public static void main() {
    for (int r = 0; r < 30000; r++) { work(3); }
  }
}`
	for _, tc := range []struct {
		name  string
		every int
	}{{"keep-all", 0}, {"sample-8", 8}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				prof, err := algoprof.Run(src, algoprof.Config{Seed: 1, SampleEvery: tc.every})
				if err != nil {
					b.Fatal(err)
				}
				_ = prof
			}
		})
	}
}

// BenchmarkAblationCriteria compares the §2.4 equivalence criteria on the
// running example: the paper's SomeElements yields one input per list;
// AllElements fragments evolving structures; SameType collapses them all.
func BenchmarkAblationCriteria(b *testing.B) {
	src := workloads.RunningExample(workloads.Random, 32, 4, 2)
	for _, tc := range []struct {
		name string
		crit algoprof.Criterion
	}{
		{"some-elements", algoprof.SomeElements},
		{"all-elements", algoprof.AllElements},
		{"same-type", algoprof.SameType},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var inputs int
			for i := 0; i < b.N; i++ {
				prof, err := algoprof.Run(src, algoprof.Config{Seed: 1, Criterion: tc.crit})
				if err != nil {
					b.Fatal(err)
				}
				p, _ := prof.Raw()
				inputs = len(p.Registry().CanonicalIDs())
			}
			b.ReportMetric(float64(inputs), "inputs")
		})
	}
}

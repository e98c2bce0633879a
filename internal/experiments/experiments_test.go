package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"algoprof/internal/workloads"
)

// smallSweep keeps unit tests fast; the benchmarks use DefaultSweep.
var smallSweep = Sweep{MaxSize: 64, Step: 6, Reps: 2, Seed: 42}

func TestFigure1Random(t *testing.T) {
	res, err := Figure1(workloads.Random, smallSweep)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != "n^2" {
		t.Errorf("random input model = %s, want n^2", res.Model)
	}
	// Paper: steps = 0.25·size².
	if math.Abs(res.Coeff-0.25) > 0.08 {
		t.Errorf("random coefficient = %.3f, want ≈0.25", res.Coeff)
	}
	if len(res.Points) < 15 {
		t.Errorf("only %d points", len(res.Points))
	}
	if !strings.Contains(res.Plot, "*") {
		t.Error("plot must overlay the fitted curve")
	}
}

func TestFigure1Sorted(t *testing.T) {
	res, err := Figure1(workloads.Sorted, smallSweep)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != "n" {
		t.Errorf("sorted input model = %s, want n (already sorted: one pass)", res.Model)
	}
}

func TestFigure1Reversed(t *testing.T) {
	res, err := Figure1(workloads.Reversed, smallSweep)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != "n^2" {
		t.Errorf("reversed input model = %s, want n^2", res.Model)
	}
	// Paper: worst case ≈ 0.5·size².
	if math.Abs(res.Coeff-0.5) > 0.1 {
		t.Errorf("reversed coefficient = %.3f, want ≈0.5", res.Coeff)
	}
}

func TestFigure2Baseline(t *testing.T) {
	res, err := Figure2(smallSweep)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Figure 2: List.sort is the hottest method...
	if res.HottestExclusive != "List.sort" {
		t.Errorf("hottest = %s, want List.sort", res.HottestExclusive)
	}
	// ...and List.append / the Node constructor are the most called.
	if res.MostCalled != "List.append" && res.MostCalled != "Node.Node" {
		t.Errorf("most called = %s, want List.append or Node.Node", res.MostCalled)
	}
	if !strings.Contains(res.Tree, "Main.main") {
		t.Error("tree missing root context")
	}
}

func TestFigure3Tree(t *testing.T) {
	res, err := Figure3(smallSweep)
	if err != nil {
		t.Fatal(err)
	}
	if res.LoopCount != 5 {
		t.Errorf("repetition tree has %d loop nodes, want 5 (Figure 3)\n%s", res.LoopCount, res.Tree)
	}
	if !strings.Contains(res.SortDescription, "Modification of a Node-based recursive structure") {
		t.Errorf("sort description = %q", res.SortDescription)
	}
	if !strings.Contains(res.ConstructDescription, "Construction of a Node-based recursive structure") {
		t.Errorf("construct description = %q", res.ConstructDescription)
	}
	if res.SortModel != "n^2" {
		t.Errorf("sort model = %s, want n^2", res.SortModel)
	}
}

func TestTable1Experiment(t *testing.T) {
	outcomes, err := Table1(24, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 18 {
		t.Fatalf("%d outcomes", len(outcomes))
	}
	for _, o := range outcomes {
		if !o.Result.OK() {
			t.Errorf("%s: I=%v S=%v G=%v (%s)", o.Row.Name(),
				o.Result.InputsOK, o.Result.SizeOK, o.Result.GroupOK, o.Result.GroupDetail)
		}
	}
	rendered := RenderTable1(outcomes)
	if !strings.Contains(rendered, "Struct") || !strings.Contains(rendered, "graph") {
		t.Errorf("rendered table:\n%s", rendered)
	}
}

func TestFigure45GrowthShapes(t *testing.T) {
	res, err := Figure45(Sweep{MaxSize: 72, Step: 6, Reps: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Grouped {
		t.Error("append and grow loops must form one algorithm (Figure 4)")
	}
	if res.NaiveModel != "n^2" {
		t.Errorf("naive growth model = %s, want n^2 (Figure 5)", res.NaiveModel)
	}
	if res.IdealModel != "n" && res.IdealModel != "n log n" {
		t.Errorf("ideal growth model = %s, want linear-ish (Figure 5)", res.IdealModel)
	}
}

func TestParadigmAgnosticism(t *testing.T) {
	res, err := Paradigm(smallSweep)
	if err != nil {
		t.Fatal(err)
	}
	if res.ImperativeModel != "n^2" {
		t.Errorf("imperative model = %s, want n^2", res.ImperativeModel)
	}
	// The functional insert does ≈ k/2 steps per invocation on a size-k
	// accumulator: linear per repetition, like the imperative inner loop.
	if res.FunctionalInsertModel != "n" {
		t.Errorf("functional insert model = %s, want n", res.FunctionalInsertModel)
	}
	if res.FunctionalInsertCoeff < 0.25 || res.FunctionalInsertCoeff > 0.9 {
		t.Errorf("insert coefficient %.3f, want ≈0.5", res.FunctionalInsertCoeff)
	}
	// Total work agrees across paradigms (both ≈ 0.25·Σn²).
	ratio := float64(res.FunctionalTotalSteps) / float64(res.ImperativeTotalSteps)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("total steps ratio %.2f (imp %d, fun %d)",
			ratio, res.ImperativeTotalSteps, res.FunctionalTotalSteps)
	}
	// The value-copying functional sort constructs fresh nodes.
	if !strings.Contains(res.FunctionalDescription, "Construction") {
		t.Errorf("functional insert should construct: %q", res.FunctionalDescription)
	}
	if !res.NestedRecursions {
		t.Error("insert recursion must nest inside sort recursion (two nested repetitions)")
	}
}

func TestOverheadExperiment(t *testing.T) {
	res, err := ModeOverhead(Sweep{MaxSize: 48, Step: 6, Reps: 1, Seed: 1}, func() int64 { return time.Now().UnixNano() })
	if err != nil {
		t.Fatal(err)
	}
	if res.EventsInstrs <= res.PlainInstrs {
		t.Errorf("profiled instruction count %d should exceed plain %d (probes execute)",
			res.EventsInstrs, res.PlainInstrs)
	}
	if res.EventsSlowdown.Median < 1 {
		t.Errorf("slowdown %.2f < 1 is implausible", res.EventsSlowdown.Median)
	}
	if n := res.EventsOverPaths.N; n != modeRounds {
		t.Errorf("events/paths over %d rounds, want %d", n, modeRounds)
	}
}

func TestGoldsmithBaseline(t *testing.T) {
	res, err := Goldsmith(Sweep{MaxSize: 64, Step: 8, Reps: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.TopModel != "n^2" {
		t.Errorf("steepest block model = %s, want n^2 (the sort inner block)", res.TopModel)
	}
	if res.ManualRuns < 3 {
		t.Errorf("manual runs = %d", res.ManualRuns)
	}
	if !strings.Contains(res.Report, "block") {
		t.Errorf("report:\n%s", res.Report)
	}
}

func TestAblationSizeStrategy(t *testing.T) {
	res, err := AblationSizeStrategy()
	if err != nil {
		t.Fatal(err)
	}
	if res.CapacitySize != 1000 {
		t.Errorf("capacity size = %d, want 1000", res.CapacitySize)
	}
	// constructPartiallyUsedArray writes 10 slots with distinct values.
	if res.UniqueSize != 10 {
		t.Errorf("unique size = %d, want 10 (the used slots)", res.UniqueSize)
	}
}

func TestAblationIdentify(t *testing.T) {
	res, err := AblationIdentify(300, func() int64 { return time.Now().UnixNano() })
	if err != nil {
		t.Fatal(err)
	}
	if !res.SameInputs {
		t.Error("identification modes must agree on inputs and sizes")
	}
	// Eager identification is asymptotically worse on constructions; on a
	// 300-element build it must not be faster by more than noise.
	if res.EagerNs.Median < res.DeferredNs.Median/4 {
		t.Errorf("eager (%.0fns) unexpectedly much faster than deferred (%.0fns)",
			res.EagerNs.Median, res.DeferredNs.Median)
	}
}

func TestCrossoverStudy(t *testing.T) {
	res, err := Crossover(Sweep{MaxSize: 96, Step: 6, Reps: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.InsertionModel != "n^2" {
		t.Errorf("insertion model = %s, want n^2", res.InsertionModel)
	}
	if res.MergeModel != "n log n" && res.MergeModel != "n" {
		t.Errorf("merge model = %s, want n log n (or n on short ranges)", res.MergeModel)
	}
	// Merge sort must win at the top of the sweep...
	if res.MergeAtMax >= res.InsertionAtMax {
		t.Errorf("merge %.0f !< insertion %.0f at max size", res.MergeAtMax, res.InsertionAtMax)
	}
	// ...with a crossover at small-but-positive size.
	if res.CrossoverN <= 2 || res.CrossoverN > 96 {
		t.Errorf("crossover at n=%d, want within the sweep", res.CrossoverN)
	}
}

func TestOverheadSweepGrows(t *testing.T) {
	pts, err := OverheadSweep([]int{16, 64, 256}, 3, func() int64 { return time.Now().UnixNano() })
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Slowdown.Median < 1 {
			t.Errorf("size %d: slowdown %.2f < 1", p.Size, p.Slowdown.Median)
		}
	}
}

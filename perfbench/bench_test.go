package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkJSON is the part of BENCHMARK.json the self-test holds the
// printed metrics to.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShortPassOfEveryWorkload runs every workload briefly, untraced and
// traced (record-replay's traced run includes the daemon leg), and
// requires every correctness check to pass and the printed metrics to be
// exactly the ones BENCHMARK.json names, with its units.
func TestShortPassOfEveryWorkload(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloadTable) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(b.Workloads), len(workloadTable))
	}
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			res, _, err := benchmark(opts{workload: w.Name, seed: 7, seconds: 300 * time.Millisecond, trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
			}
			if !trace {
				for name, m := range res.Metrics {
					if m.Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w.Name, name)
					}
				}
			}
		}
	}
}

// TestQuantilesMatchPython pins quantile to Python's
// statistics.quantiles(..., n=4), which is how spreads are judged.
func TestQuantilesMatchPython(t *testing.T) {
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Fatalf("summary %+v, want q1 2.75, median 5.5, q3 8.25", s)
	}
	if got := percentile([]float64{5, 1, 4, 2, 3}, 90); got != 5 {
		t.Fatalf("p90 = %v, want 5", got)
	}
}

// TestUnknownWorkloadFails keeps a mistyped workload from printing a
// result.
func TestUnknownWorkloadFails(t *testing.T) {
	if _, _, err := benchmark(opts{workload: "nope", seconds: time.Millisecond}); err == nil {
		t.Fatal("unknown workload ran")
	}
}

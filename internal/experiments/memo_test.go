package experiments

import (
	"bytes"
	"testing"
	"time"

	"algoprof"
	"algoprof/internal/workloads"
)

// profileJSON runs src and returns the serialized profile.
func profileJSON(t *testing.T, src string, cfg algoprof.Config) []byte {
	t.Helper()
	prof, err := algoprof.Run(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := prof.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The snapshot memo is a pure optimization: every profile — algorithms,
// classifications, cost functions, data points, program output — must be
// byte-identical with the memo on and off, across the whole corpus.
func TestMemoAblationProfilesIdentical(t *testing.T) {
	corpus := map[string]string{
		"running-example": workloads.RunningExample(workloads.Random, 17, 4, 2),
		"running-scanned": workloads.RunningExampleScanned(workloads.Sorted, 17, 4, 2, 8),
		"functional-sort": workloads.FunctionalSort(workloads.Random, 17, 4, 2),
		"arraylist-grow":  workloads.ArrayListGrow(true, 17, 4, 2),
	}
	for _, row := range workloads.Table1() {
		corpus["table1/"+row.Name()] = row.Source(16)
	}
	for name, src := range corpus {
		on := profileJSON(t, src, algoprof.Config{Seed: 42})
		off := profileJSON(t, src, algoprof.Config{Seed: 42, DisableMemo: true})
		if !bytes.Equal(on, off) {
			t.Errorf("%s: profile differs with memoization disabled", name)
		}
	}
}

// Sweeps must produce identical results regardless of the worker count.
func TestParallelSweepDeterministic(t *testing.T) {
	sw := Sweep{MaxSize: 48, Step: 6, Reps: 2, Seed: 42}
	type outcome struct {
		fig1   string
		table1 string
	}
	runAt := func(workers int) outcome {
		SetParallelism(workers)
		defer SetParallelism(0)
		figs, err := Figure1All(sw)
		if err != nil {
			t.Fatal(err)
		}
		var fig1 string
		for _, f := range figs {
			fig1 += f.Order.String() + ": " + f.Text + "\n"
		}
		outcomes, err := Table1(16, 7)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{fig1: fig1, table1: RenderTable1(outcomes)}
	}
	serial := runAt(1)
	parallel := runAt(4)
	if serial.fig1 != parallel.fig1 {
		t.Errorf("Figure 1 differs by worker count:\n-j1:\n%s\n-j4:\n%s", serial.fig1, parallel.fig1)
	}
	if serial.table1 != parallel.table1 {
		t.Errorf("Table 1 differs by worker count:\n-j1:\n%s\n-j4:\n%s", serial.table1, parallel.table1)
	}
}

// The ablation sweep must show the memo reducing the profiling slowdown on
// the scan-heavy workload (the acceptance bar for the optimization). Noise
// margins are deliberately loose; the observed gap is ≈2x.
func TestOverheadSweepMemoWins(t *testing.T) {
	if raceEnabled {
		t.Skip("timing assertion: race instrumentation distorts relative costs")
	}
	pts, err := OverheadSweep([]int{256}, 3, func() int64 { return time.Now().UnixNano() })
	if err != nil {
		t.Fatal(err)
	}
	p := pts[0]
	if p.NoMemoNs.Median <= p.ProfiledNs.Median {
		t.Errorf("no-memo run (%.0fns) not slower than memoized (%.0fns) at n=%d",
			p.NoMemoNs.Median, p.ProfiledNs.Median, p.Size)
	}
}

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

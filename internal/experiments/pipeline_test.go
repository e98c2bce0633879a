package experiments

import (
	"testing"

	"algoprof"
	"algoprof/internal/workloads"
)

// TestCombinedRunMatchesDedicatedRun validates per-consumer plan filtering:
// the core profile extracted from the shared full-instrumentation event
// stream must equal the profile of a dedicated optimized-plan run.
func TestCombinedRunMatchesDedicatedRun(t *testing.T) {
	src := workloads.RunningExample(workloads.Random, 48, 6, 2)
	combined, err := RunBackends(src, 42)
	if err != nil {
		t.Fatal(err)
	}
	dedicated, err := algoprof.Run(src, algoprof.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	a := profileFingerprint(combined.Profile)
	b := profileFingerprint(dedicated)
	if a != b {
		t.Errorf("plan-filtered core profile differs from dedicated run:\n--- combined ---\n%s\n--- dedicated ---\n%s", a, b)
	}
}

// TestRunBackendsVerifiedTable1: the verified combined pass a daemon job
// with all_backends runs must accept every Table 1 program, including the
// recursive traversals whose loop invocations nest under recursion
// folding; a rejection silently drops the job's backends summary.
func TestRunBackendsVerifiedTable1(t *testing.T) {
	for _, row := range workloads.Table1() {
		if _, err := RunBackendsVerified(row.Source(16), 1); err != nil {
			t.Errorf("%s: %v", row.Name(), err)
		}
	}
}

func TestCompareIdentical(t *testing.T) {
	res, err := Compare(smallSweep)
	if err != nil {
		t.Fatal(err)
	}
	if res.SortModel == "" || res.HottestExclusive == "" || res.TopBlock == "" || res.Passes != 1 {
		t.Errorf("Compare returned empty fields: %+v", res)
	}
	again, err := Compare(smallSweep)
	if err != nil {
		t.Fatal(err)
	}
	if *again != *res {
		t.Errorf("Compare not deterministic:\n%+v\n%+v", res, again)
	}
}

func TestPipelineBenchIdentity(t *testing.T) {
	var tick int64
	pts, err := PipelineBench([]int{24}, 42, func() int64 { tick++; return tick })
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("got %d points, want 1", len(pts))
	}
	p := pts[0]
	if !p.Identical {
		t.Error("fan-out core profile differs from the dedicated run")
	}
	for _, d := range []int64{p.ThreePassNs, p.SyncFanoutNs, p.SoloSyncNs} {
		if d <= 0 {
			t.Errorf("non-positive timing in %+v", p)
		}
	}
}

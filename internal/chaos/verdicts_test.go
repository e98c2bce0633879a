package chaos_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"algoprof/internal/chaos"
)

var updateVerdicts = flag.Bool("update", false, "rewrite testdata/verdicts.txt")

// verdictFile pins every sweep's per-seed verdict across commits.
// Regenerate with: go test ./internal/chaos -run TestSweepVerdicts -update
const verdictFile = "testdata/verdicts.txt"

// sweepVerdicts runs each target over the seeds the Makefile and the
// sweep tests use and renders one line per seed: target, seed, workload,
// faults, outcome, and the fault class of a failed seed. Err is left out:
// it embeds scratch paths and job IDs.
func sweepVerdicts(t *testing.T) []string {
	t.Helper()
	sweeps := []struct {
		target chaos.Target
		base   uint64
		seeds  int
	}{
		{chaos.Lib, 1, 32},
		{chaos.Service, 0, 17},
		{chaos.Dist, 1, 8},
		{chaos.Dist, 400, 8},
	}
	var lines []string
	for _, sw := range sweeps {
		rep, err := chaos.Run(sw.target, chaos.Config{Seeds: sw.seeds, BaseSeed: sw.base, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Violations) != 0 {
			t.Errorf("%s sweep from seed %d: violations:\n%s", sw.target, sw.base, strings.Join(rep.Violations, "\n"))
		}
		for _, res := range rep.Results {
			faults := strings.Join(res.Faults, ",")
			if faults == "" {
				faults = "none"
			}
			line := fmt.Sprintf("%s %d %s %s %s", sw.target, res.Seed, res.Workload, faults, res.Outcome)
			if res.Outcome == chaos.Failed {
				line += " " + res.Class.String()
			}
			lines = append(lines, line)
		}
	}
	return lines
}

// TestSweepVerdicts fails when any seed's verdict moves: the same seed
// must draw the same workload and faults and land in the same outcome
// with the same fault class. A change that alters a sweep on purpose
// regenerates the file with -update and says which verdicts moved.
func TestSweepVerdicts(t *testing.T) {
	got := sweepVerdicts(t)
	body := "# Chaos sweep verdicts: target seed workload faults outcome [class].\n" +
		"# Regenerate with: go test ./internal/chaos -run TestSweepVerdicts -update\n" +
		strings.Join(got, "\n") + "\n"
	if *updateVerdicts {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(verdictFile, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(verdictFile)
	if err != nil {
		t.Fatalf("reading verdict file (run with -update to create it): %v", err)
	}
	var want []string
	for _, line := range strings.Split(string(data), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	var diffs []string
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(want):
			diffs = append(diffs, "extra: "+got[i])
		case i >= len(got):
			diffs = append(diffs, "missing: "+want[i])
		case got[i] != want[i]:
			diffs = append(diffs, want[i]+" -> "+got[i])
		}
	}
	if len(diffs) > 0 {
		t.Errorf("%d of %d sweep verdicts differ (run with -update if intended):\n%s",
			len(diffs), len(want), strings.Join(diffs, "\n"))
	}
}

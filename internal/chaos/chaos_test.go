package chaos

import (
	"strings"
	"testing"

	"algoprof/internal/faultinject"
)

// TestChaosSweep is the smoke sweep of every target: each schedule must
// classify into the outcome trichotomy with zero contract violations —
// for the daemon targets, no lost job, no untyped failure and no damaged
// artifact ingested — and the schedule families must actually produce the
// outcomes they are designed to force.
func TestChaosSweep(t *testing.T) {
	for _, tc := range []struct {
		target      Target
		base        uint64
		seeds       int
		skipInShort bool
		// wantDegraded and wantFailed: the watchdog family must halt a run
		// and the resource family must fire.
		wantDegraded, wantFailed bool
	}{
		{target: Lib, base: 1, seeds: 16, wantDegraded: true, wantFailed: true},
		{target: Service, base: 0, seeds: 8, skipInShort: true},
		// Two full cycles of the worker-crash, partition, slow-worker and
		// corrupt-response families.
		{target: Dist, base: 400, seeds: 8},
	} {
		t.Run(string(tc.target), func(t *testing.T) {
			if tc.skipInShort && testing.Short() {
				t.Skip("chaos sweep in -short mode")
			}
			rep, err := Run(tc.target, Config{Seeds: tc.seeds, BaseSeed: tc.base, Dir: t.TempDir(), Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) != 0 {
				t.Fatalf("chaos violations:\n%s", rep.Render())
			}
			if got := len(rep.Results); got != tc.seeds {
				t.Fatalf("got %d results, want %d", got, tc.seeds)
			}
			ok, degraded, failed := rep.Counts()
			if ok == 0 {
				t.Errorf("no schedule succeeded — the healthy path is not exercised:\n%s", rep.Render())
			}
			if tc.wantDegraded && degraded == 0 {
				t.Error("no schedule degraded (watchdog family never halted a run)")
			}
			if tc.wantFailed && failed == 0 {
				t.Error("no schedule failed typed (resource family never fired)")
			}
			for _, res := range rep.Results {
				if res.Outcome == Failed && res.Class == faultinject.Unknown {
					t.Errorf("seed %d failed with an unknown fault class: %s", res.Seed, res.Err)
				}
			}
			t.Log("\n" + rep.Render())
		})
	}
}

// TestChaosDeterministic: the same sweep configuration must reproduce the
// same outcome sequence, fault for fault.
func TestChaosDeterministic(t *testing.T) {
	run := func() []Result {
		rep, err := Run(Lib, Config{Seeds: 8, BaseSeed: 21, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Violations) != 0 {
			t.Fatalf("chaos violations:\n%s", strings.Join(rep.Violations, "\n"))
		}
		return rep.Results
	}
	a, b := run(), run()
	for i := range a {
		// Err embeds scratch-directory paths, so determinism is asserted on
		// the classification, not the rendered message.
		if a[i].Outcome != b[i].Outcome || a[i].Class != b[i].Class {
			t.Errorf("seed %d: outcome differs across identical sweeps: %+v vs %+v", a[i].Seed, a[i], b[i])
		}
	}
}

// TestRunUnknownTarget: a target outside the three is a setup error, not
// an empty sweep.
func TestRunUnknownTarget(t *testing.T) {
	if _, err := Run("bogus", Config{Dir: t.TempDir()}); err == nil {
		t.Fatal("Run accepted an unknown target")
	}
}

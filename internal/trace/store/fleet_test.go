package store

import (
	"testing"

	"algoprof"
	"algoprof/internal/trace"
	"algoprof/internal/workloads"
)

// fleetStore records three runs: two identical (same program, same seed —
// traces are deterministic, so same bytes) and one different.
func fleetStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	src := workloads.RunningExample(workloads.Random, 24, 8, 2)
	other := workloads.RunningExample(workloads.Sorted, 24, 8, 2)
	for name, program := range map[string]string{"base": src, "twin": src, "other": other} {
		if _, err := s.Record(name, program, "fleet", algoprof.Config{Seed: 1}, trace.WriterOptions{Compress: true}); err != nil {
			t.Fatalf("Record(%s): %v", name, err)
		}
	}
	return s
}

func TestFleetDiff(t *testing.T) {
	s := fleetStore(t)
	rep, err := s.FleetDiff("base", nil)
	if err != nil {
		t.Fatalf("FleetDiff: %v", err)
	}
	if len(rep.Entries) != 2 || rep.Failed != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Identical != 1 || rep.Changed != 1 {
		t.Fatalf("partition: identical=%d changed=%d", rep.Identical, rep.Changed)
	}
	for _, e := range rep.Entries {
		switch e.Run {
		case "twin":
			if !e.Identical || !e.SkippedByRoot {
				t.Errorf("twin: want identity proven from manifest roots, got %+v", e)
			}
		case "other":
			if e.Identical || e.Diff == nil {
				t.Errorf("other: want a changed diff, got %+v", e)
			}
		default:
			t.Errorf("unexpected entry %q", e.Run)
		}
	}
	if rep.BaselineRoot == "" {
		t.Errorf("baseline root missing from report")
	}
}

// TestFleetDiffDamagedRun: a run whose trace is unreadable must fail its
// own entry without hiding the rest of the fleet.
func TestFleetDiffDamagedRun(t *testing.T) {
	s := fleetStore(t)
	run, err := s.Load("other")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if err := s.writeFileAtomic(run.Dir+"/"+TraceName, []byte("garbage"), 0o644); err != nil {
		t.Fatalf("damage: %v", err)
	}
	// The stale manifest root would skip the comparison; clear it so the
	// differ actually opens the damaged file.
	run.Manifest.TraceMerkleRoot = ""
	if err := s.writeManifest(run.Dir, &run.Manifest); err != nil {
		t.Fatalf("manifest: %v", err)
	}
	rep, err := s.FleetDiff("base", nil)
	if err != nil {
		t.Fatalf("FleetDiff: %v", err)
	}
	if rep.Failed != 1 || rep.Identical != 1 {
		t.Fatalf("report after damage: %+v", rep)
	}
}

// TestManifestStampsTraceIndex: the manifest's format version and Merkle
// root must come from the stored trace file itself.
func TestManifestStampsTraceIndex(t *testing.T) {
	s := fleetStore(t)
	run, err := s.Load("base")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	ix, err := trace.OpenIndex(run.Dir + "/" + TraceName)
	if err != nil {
		t.Fatalf("OpenIndex: %v", err)
	}
	if run.Manifest.FormatVersion != int(ix.Version) {
		t.Errorf("manifest format_version %d, trace file says %d", run.Manifest.FormatVersion, ix.Version)
	}
	if run.Manifest.TraceMerkleRoot != ix.Root.String() {
		t.Errorf("manifest merkle root %q, trace file says %q", run.Manifest.TraceMerkleRoot, ix.Root)
	}
}

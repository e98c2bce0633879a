package store

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"algoprof"
	"algoprof/internal/faultinject"
	"algoprof/internal/trace"
	"algoprof/internal/workloads"
)

// TestInterruptedRecordStaysListable is the issue's crash-safety
// criterion: a recording cut short (here by a pre-cancelled context,
// which aborts the trace writer exactly where a kill would) must leave a
// run directory that List names, Load reads, and Replay partially
// recovers.
func TestInterruptedRecordStaysListable(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	src := workloads.RunningExample(workloads.Random, 48, 4, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = s.RecordTenantContext(ctx, "crashed", src, "interrupted", "", algoprof.Config{Seed: 1}, trace.WriterOptions{})
	if err == nil {
		t.Fatal("cancelled Record succeeded")
	}
	var pe *algoprof.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("Record error = %v (%T), want *algoprof.PartialError", err, err)
	}

	names, err := s.List()
	if err != nil || !slices.Contains(names, "crashed") {
		t.Fatalf("List = %v, %v; interrupted run not listed", names, err)
	}
	run, err := s.Load("crashed")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !run.Manifest.Degraded || !slices.Contains(run.Manifest.DegradedReasons, interruptedReason) {
		t.Errorf("manifest reasons = %v, want %s", run.Manifest.DegradedReasons, interruptedReason)
	}

	rep, err := s.Replay("crashed")
	if err != nil {
		t.Fatalf("Replay of interrupted run: %v", err)
	}
	if !rep.Profile.Degraded || !slices.Contains(rep.Profile.DegradedReasons, "truncated-trace") {
		t.Errorf("replayed profile reasons = %v, want truncated-trace", rep.Profile.DegradedReasons)
	}
}

// TestProvisionalManifestBeforeRun simulates the kill -9 window directly:
// a run directory holding only the pre-run artifacts — source, the
// provisional manifest, and a header-only trace — must still list and
// load as a degraded run.
func TestProvisionalManifestBeforeRun(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "killed")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "class Main { public static void main() { check(true); } }"
	if err := s.writeFileAtomic(filepath.Join(dir, programFile), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	m := Manifest{
		FormatVersion:   trace.Version,
		Degraded:        true,
		DegradedReasons: []string{interruptedReason},
	}
	if err := s.writeManifest(dir, &m); err != nil {
		t.Fatal(err)
	}

	names, err := s.List()
	if err != nil || !slices.Contains(names, "killed") {
		t.Fatalf("List = %v, %v; provisional run not listed", names, err)
	}
	run, err := s.Load("killed")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !run.Manifest.Degraded {
		t.Error("provisional manifest not degraded")
	}
}

// TestFailedRecordDoesNotList: a genuine failure (here a compile error)
// must not leave a listable run behind.
func TestFailedRecordDoesNotList(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Record("broken", "class Main { syntax error", "", algoprof.Config{}, trace.WriterOptions{})
	if err == nil {
		t.Fatal("Record of a broken program succeeded")
	}
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(names, "broken") {
		t.Errorf("failed run listed: %v", names)
	}
}

// TestAtomicWriteReplaces: writeFileAtomic must replace existing content
// in one step and leave no temp files behind.
func TestAtomicWriteReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.json")
	if err := writeFileAtomicFS(faultinject.OS(), path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeFileAtomicFS(faultinject.OS(), path, []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "new" {
		t.Fatalf("read %q, %v; want new", data, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("temp files left behind: %v", ents)
	}
}

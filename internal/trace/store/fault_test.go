package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"algoprof"
	"algoprof/internal/faultinject"
	"algoprof/internal/trace"
	"algoprof/internal/workloads"
)

// fastRetry is the default retry shape with sleeps elided.
var fastRetry = faultinject.RetryPolicy{Attempts: 3, Backoff: time.Millisecond, Sleep: func(time.Duration) {}}

func smallSrc() string { return workloads.RunningExample(workloads.Random, 24, 8, 1) }

// TestListSkipsGarbage: damaged or foreign entries in the store directory
// are logged and skipped, never hiding the intact runs or failing the
// listing.
func TestListSkipsGarbage(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Record("good", smallSrc(), "w", algoprof.Config{}, trace.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	// A directory whose manifest is garbage, a directory with no manifest
	// at all, and a stray file.
	if err := os.MkdirAll(filepath.Join(dir, "garbage"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "garbage", manifestFile), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "empty"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "stray.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	var logged []string
	s.SetLogf(func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "good" {
		t.Fatalf("List = %v, want [good]", names)
	}
	all := strings.Join(logged, "\n")
	if !strings.Contains(all, "garbage") || !strings.Contains(all, "empty") {
		t.Errorf("skipped entries not logged; log:\n%s", all)
	}
}

// TestRecordResourceFaultTyped: a resource fault on the atomic-commit
// rename fails the recording with a typed Resource error and leaves no
// listable run behind.
func TestRecordResourceFaultTyped(t *testing.T) {
	plan := faultinject.NewPlan(4)
	plan.Arm(faultinject.PointRename, faultinject.PointConfig{
		Prob: 1, MaxFires: 1, Class: faultinject.Resource, Errno: syscall.EMFILE,
	})
	s, err := OpenFS(t.TempDir(), plan.FS(faultinject.OS()))
	if err != nil {
		t.Fatal(err)
	}
	s.SetRetry(fastRetry)
	s.SetLogf(nil)
	_, err = s.Record("run", smallSrc(), "w", algoprof.Config{}, trace.WriterOptions{})
	if err == nil {
		t.Fatal("record under rename fault succeeded")
	}
	if got := faultinject.ClassOf(err); got != faultinject.Resource {
		t.Errorf("ClassOf = %v, want resource", got)
	}
	if !errors.Is(err, syscall.EMFILE) {
		t.Errorf("err = %v, want EMFILE in the chain", err)
	}
	names, err := s.List()
	if err != nil || len(names) != 0 {
		t.Errorf("List = %v, %v; want empty", names, err)
	}
}

// TestRecordTraceWriteFaultTyped: an ENOSPC on the streaming trace file
// surfaces as a typed Resource error through the trace writer's I/O
// wrapping, and the provisional run directory is cleaned up.
func TestRecordTraceWriteFaultTyped(t *testing.T) {
	plan := faultinject.NewPlan(4)
	plan.Arm(faultinject.PointWrite, faultinject.PointConfig{
		Prob: 1, MaxFires: 1, Class: faultinject.Resource,
		Errno: syscall.ENOSPC, PathSuffix: traceFile,
	})
	s, err := OpenFS(t.TempDir(), plan.FS(faultinject.OS()))
	if err != nil {
		t.Fatal(err)
	}
	s.SetRetry(fastRetry)
	s.SetLogf(nil)
	_, err = s.Record("run", smallSrc(), "w", algoprof.Config{}, trace.WriterOptions{})
	if err == nil {
		t.Fatal("record under trace-write fault succeeded")
	}
	if got := faultinject.ClassOf(err); got != faultinject.Resource {
		t.Errorf("ClassOf = %v, want resource", got)
	}
	var ioe *trace.IOError
	if !errors.As(err, &ioe) || ioe.Op != "write" {
		t.Errorf("err = %v, want a trace.IOError from the write path", err)
	}
}

// TestRecordTransientAbsorbed: a bounded burst of transient faults is
// retried away — the recording succeeds, the faults demonstrably fired,
// and the stored run replays to the recorded profile.
func TestRecordTransientAbsorbed(t *testing.T) {
	plan := faultinject.NewPlan(6)
	sync := plan.Arm(faultinject.PointSync, faultinject.PointConfig{
		Prob: 1, MaxFires: 2, Class: faultinject.Transient, Errno: syscall.EINTR,
	})
	dir := t.TempDir()
	s, err := OpenFS(dir, plan.FS(faultinject.OS()))
	if err != nil {
		t.Fatal(err)
	}
	s.SetRetry(fastRetry)
	s.SetLogf(nil)
	rec, err := s.Record("run", smallSrc(), "w", algoprof.Config{}, trace.WriterOptions{})
	if err != nil {
		t.Fatalf("record under transient faults: %v", err)
	}
	if sync.Fires() == 0 {
		t.Fatal("transient fault point never fired; the test exercised nothing")
	}
	clean, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := clean.Replay("run")
	if err != nil {
		t.Fatalf("replay after absorbed faults: %v", err)
	}
	wj, _ := rec.Profile.JSON()
	gj, _ := replayed.Profile.JSON()
	if string(wj) != string(gj) {
		t.Error("replayed profile differs from the recorded one")
	}
}

// TestReplayReadFaultTyped: read faults during replay surface typed
// instead of turning into corruption reports.
func TestReplayReadFaultTyped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Record("run", smallSrc(), "w", algoprof.Config{}, trace.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	plan := faultinject.NewPlan(8)
	plan.Arm(faultinject.PointReadFile, faultinject.PointConfig{
		Prob: 1, Class: faultinject.Resource, Errno: syscall.ENFILE, PathSuffix: traceFile,
	})
	faulted, err := OpenFS(dir, plan.FS(faultinject.OS()))
	if err != nil {
		t.Fatal(err)
	}
	faulted.SetRetry(fastRetry)
	faulted.SetLogf(nil)
	if _, err := faulted.Replay("run"); faultinject.ClassOf(err) != faultinject.Resource {
		t.Errorf("replay err = %v, want typed resource fault", err)
	}
}

// TestReplayCorruptFrameTyped: a trace damaged mid-stream, with its index
// intact, fails Replay as corruption that names the damaged frame's file
// offset.
func TestReplayCorruptFrameTyped(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	run, err := s.Record("run", smallSrc(), "w", algoprof.Config{}, trace.WriterOptions{Compress: true, FrameSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(run.Dir, traceFile)
	ix, err := trace.OpenIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Frames < 4 {
		t.Fatalf("trace has %d frames; the test wants a mid-trace frame", ix.Frames)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	victim := ix.FrameOff[ix.Frames/2]
	data[victim+6] ^= 0xFF // a payload byte: the frame's CRC catches it
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = s.Replay("run")
	var ce *trace.CorruptError
	if !errors.Is(err, trace.ErrCorrupt) || !errors.As(err, &ce) {
		t.Fatalf("replay err = %v, want a *trace.CorruptError", err)
	}
	if faultinject.ClassOf(err) != faultinject.Corruption {
		t.Errorf("fault class %v, want Corruption", faultinject.ClassOf(err))
	}
	if ce.Off != victim {
		t.Errorf("error names offset %d, want the damaged frame's %d", ce.Off, victim)
	}
}

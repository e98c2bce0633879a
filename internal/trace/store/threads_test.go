package store

import (
	"bytes"
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"algoprof"
	"algoprof/internal/trace"
	"algoprof/internal/workloads"
)

// TestThreadedRecordReplayRoundTrip is the threaded byte-identity gate:
// a run that spawns VM threads records one trace per thread alongside the
// main trace, the manifest lists every thread, and replay rebuilds a
// profile byte-identical to the live one — per-thread trees, "t<tid>:"
// attribution, summed instruction count and all.
func TestThreadedRecordReplayRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	src := workloads.Threaded(2, 20)
	rec, err := s.Record("threaded", src, "threaded-lists", algoprof.Config{Seed: 7}, trace.WriterOptions{Compress: true})
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	if rec.Profile.Threads != 2 {
		t.Fatalf("live profile accounts %d threads, want 2", rec.Profile.Threads)
	}
	if len(rec.Manifest.Threads) != 2 {
		t.Fatalf("manifest lists threads %v, want 2 entries", rec.Manifest.Threads)
	}
	for _, tid := range rec.Manifest.Threads {
		if _, serr := s.fsys.Stat(filepath.Join(s.dir, "threaded", ThreadTraceName(tid))); serr != nil {
			t.Errorf("thread %d trace missing: %v", tid, serr)
		}
	}

	liveJSON, err := rec.Profile.JSON()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Replay("threaded")
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	repJSON, err := rep.Profile.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveJSON, repJSON) {
		t.Errorf("replay differs from live profile\nlive:\n%s\nreplayed:\n%s", liveJSON, repJSON)
	}
}

// TestConcurrentRecordSameName is the create-race regression test: N
// goroutines racing to record under one run name must yield exactly one
// winner — the directory is an exclusive reservation, losers get the
// typed already-exists error, and the stored run replays intact (no
// torn manifest, no interleaved trace bytes).
func TestConcurrentRecordSameName(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	src := workloads.RunningExample(workloads.Random, 24, 8, 1)
	const racers = 8
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Record("contested", src, "race", algoprof.Config{Seed: 1}, trace.WriterOptions{})
		}(i)
	}
	wg.Wait()

	var won, lost int
	for i, err := range errs {
		switch {
		case err == nil:
			won++
		default:
			var ee *RunExistsError
			if !errors.As(err, &ee) {
				t.Errorf("racer %d lost with %v (%T), want *RunExistsError", i, err, err)
				continue
			}
			if ee.Run != "contested" {
				t.Errorf("racer %d error names run %q, want contested", i, ee.Run)
			}
			lost++
		}
	}
	if won != 1 || lost != racers-1 {
		t.Fatalf("%d winners and %d typed losers, want exactly 1 and %d", won, lost, racers-1)
	}
	// The winner's run is intact and replayable.
	if _, err := s.Replay("contested"); err != nil {
		t.Fatalf("winning run does not replay: %v", err)
	}
	names, err := s.List()
	if err != nil || len(names) != 1 {
		t.Fatalf("List = %v, %v; want exactly [contested]", names, err)
	}
}

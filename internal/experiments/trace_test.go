package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"algoprof/internal/trace"
	"algoprof/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestRecordReplayIdentical is the trace subsystem's correctness oracle:
// recording a combined three-backend pass and replaying the trace offline
// must reproduce every backend's rendered output byte for byte — and both
// must match the plain live single-pass run.
func TestRecordReplayIdentical(t *testing.T) {
	src := workloads.RunningExample(workloads.Random, 24, 8, 2)
	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		live, err := RecordBackends(src, 1, &buf, trace.WriterOptions{Compress: compress})
		if err != nil {
			t.Fatalf("RecordBackends(compress=%v): %v", compress, err)
		}
		r, err := trace.NewReader(buf.Bytes())
		if err != nil {
			t.Fatalf("NewReader(compress=%v): %v", compress, err)
		}
		replayed, err := ReplayBackends(src, r)
		if err != nil {
			t.Fatalf("ReplayBackends(compress=%v): %v", compress, err)
		}
		liveFP, replayFP := BackendsFingerprint(live), BackendsFingerprint(replayed)
		if liveFP != replayFP {
			t.Errorf("compress=%v: replayed backends differ from recorded run\nlive:\n%s\nreplayed:\n%s",
				compress, liveFP, replayFP)
		}
		plain, err := RunBackends(src, 1)
		if err != nil {
			t.Fatalf("RunBackends: %v", err)
		}
		if plainFP := BackendsFingerprint(plain); plainFP != liveFP {
			t.Errorf("compress=%v: recording pass differs from plain live pass\nplain:\n%s\nrecorded:\n%s",
				compress, plainFP, liveFP)
		}
	}
}

// TestReplayGolden pins the replayed three-backend output of the running
// example to a checked-in golden file, so format or dispatch changes that
// alter replayed reports are caught even if live and replay drift together.
// Regenerate with: go test ./internal/experiments -run TestReplayGolden -update
func TestReplayGolden(t *testing.T) {
	src := workloads.RunningExample(workloads.Random, 24, 8, 2)
	var buf bytes.Buffer
	live, err := RecordBackends(src, 1, &buf, trace.WriterOptions{})
	if err != nil {
		t.Fatalf("RecordBackends: %v", err)
	}
	r, err := trace.NewReader(buf.Bytes())
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	replayed, err := ReplayBackends(src, r)
	if err != nil {
		t.Fatalf("ReplayBackends: %v", err)
	}
	got := BackendsFingerprint(replayed)
	if got != BackendsFingerprint(live) {
		t.Fatalf("replayed fingerprint differs from live run")
	}

	golden := filepath.Join("testdata", "golden_backends.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("replayed output differs from golden file (run with -update if intended)\ngot:\n%s\nwant:\n%s",
			got, want)
	}
}

// TestReplayBackendsParallelMatches extends the oracle to sharded replay:
// every backend's rendered output after a parallel replay must be byte-
// identical to the sequential replay's (and therefore to the live run's),
// across worker counts and workloads. Small frames force many chunks so
// the merge path actually exercises reordering.
func TestReplayBackendsParallelMatches(t *testing.T) {
	srcs := map[string]string{
		"running": workloads.RunningExample(workloads.Random, 24, 8, 2),
		"sorts":   workloads.MergeVsInsertion(32, 8, 2),
	}
	for name, src := range srcs {
		var buf bytes.Buffer
		if _, err := RecordBackends(src, 1, &buf, trace.WriterOptions{FrameSize: 512, CheckpointEvery: 4}); err != nil {
			t.Fatalf("%s: RecordBackends: %v", name, err)
		}
		r, err := trace.NewReader(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: NewReader: %v", name, err)
		}
		seq, err := ReplayBackends(src, r)
		if err != nil {
			t.Fatalf("%s: ReplayBackends: %v", name, err)
		}
		seqFP := BackendsFingerprint(seq)
		for _, workers := range []int{2, 4, 8} {
			par, err := ReplayBackendsParallel(src, r, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if fp := BackendsFingerprint(par); fp != seqFP {
				t.Errorf("%s workers=%d: parallel replay differs from sequential", name, workers)
			}
		}
	}
}

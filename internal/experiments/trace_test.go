package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"algoprof"
	"algoprof/internal/mj/bytecode"
	"algoprof/internal/mj/compiler"
	"algoprof/internal/trace"
	"algoprof/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// backendsCfg is the configuration of the combined three-backend pass.
var backendsCfg = algoprof.Config{Seed: 1, Backends: true}

// recordBackends records a combined three-backend pass of src and opens
// the trace, returning the live result and the compiled program to
// replay it against.
func recordBackends(t *testing.T, src string, topts trace.WriterOptions) (*algoprof.Profile, *bytecode.Program, *trace.Reader) {
	t.Helper()
	var buf bytes.Buffer
	live, err := algoprof.Record(src, backendsCfg, &buf, topts)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	r, err := trace.NewReader(buf.Bytes())
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	prog, err := compiler.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return live, prog, r
}

// TestRecordReplayIdentical is the trace subsystem's correctness oracle:
// recording a combined three-backend pass and replaying the trace offline
// must reproduce every backend's rendered output byte for byte — and both
// must match the plain live single-pass run.
func TestRecordReplayIdentical(t *testing.T) {
	checkBackendsRoundTrip(t, trace.WriterOptions{}, trace.WriterOptions{Compress: true})
}

// TestReplayBackendsManyFrames runs the oracle on small frames, which cut
// each recording into many frames, so the frame-local string tables, clock
// bases and entity-id bases reset many times along the replay.
func TestReplayBackendsManyFrames(t *testing.T) {
	checkBackendsRoundTrip(t, trace.WriterOptions{FrameSize: 512})
}

// checkBackendsRoundTrip records a combined three-backend pass of the
// running example and the sort comparison under each of opts, and requires
// the replayed, recorded and plain live runs to render identically.
func checkBackendsRoundTrip(t *testing.T, opts ...trace.WriterOptions) {
	t.Helper()
	srcs := map[string]string{
		"running": workloads.RunningExample(workloads.Random, 24, 8, 2),
		"sorts":   workloads.MergeVsInsertion(32, 8, 2),
	}
	for name, src := range srcs {
		plain, err := algoprof.Run(src, backendsCfg)
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		plainFP := BackendsFingerprint(plain)
		for _, topts := range opts {
			what := fmt.Sprintf("%s compress=%v frame=%d", name, topts.Compress, topts.FrameSize)
			live, prog, r := recordBackends(t, src, topts)
			replayed, err := algoprof.ReplayProgram(prog, backendsCfg, r)
			if err != nil {
				t.Fatalf("%s: ReplayProgram: %v", what, err)
			}
			liveFP, replayFP := BackendsFingerprint(live), BackendsFingerprint(replayed)
			if liveFP != replayFP {
				t.Errorf("%s: replayed backends differ from recorded run\nlive:\n%s\nreplayed:\n%s",
					what, liveFP, replayFP)
			}
			if plainFP != liveFP {
				t.Errorf("%s: recording pass differs from plain live pass\nplain:\n%s\nrecorded:\n%s",
					what, plainFP, liveFP)
			}
		}
	}
}

// TestReplayGolden pins the replayed three-backend output of the running
// example to a checked-in golden file, so format or dispatch changes that
// alter replayed reports are caught even if live and replay drift together.
// Regenerate with: go test ./internal/experiments -run TestReplayGolden -update
func TestReplayGolden(t *testing.T) {
	src := workloads.RunningExample(workloads.Random, 24, 8, 2)
	live, prog, r := recordBackends(t, src, trace.WriterOptions{})
	replayed, err := algoprof.ReplayProgram(prog, backendsCfg, r)
	if err != nil {
		t.Fatalf("ReplayProgram: %v", err)
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

package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"algoprof"
	"algoprof/internal/benchfile"
	"algoprof/internal/events/pipeline"
	"algoprof/internal/mj/compiler"
	"algoprof/internal/trace"
	"algoprof/internal/workloads"
)

// ReplayBenchResult is the replay + diff benchmark backing
// BENCH_replay.json.
type ReplayBenchResult struct {
	// Trace shape.
	Frames     int    `json:"frames"`
	Records    uint64 `json:"records"`
	TraceBytes int64  `json:"trace_bytes"`

	// ReplayNs is a raw trace replay's wall time: decode, heap binding
	// and dispatch to a no-op consumer.
	ReplayNs benchfile.Summary `json:"replay_ns"`
	// ProfileReplayNs is an end-to-end profile replay's wall time
	// (algoprof.ReplayProgram, full profiler attached).
	ProfileReplayNs benchfile.Summary `json:"profile_replay_ns"`

	// The bytes that the footer diff and the full scan it replaces read
	// to compare an identical trace pair (the fleet's common case).
	DiffMerkleBytes int64 `json:"diff_merkle_bytes"`
	DiffFullBytes   int64 `json:"diff_full_bytes"`
}

// replayRounds is how many interleaved rounds ReplayBench times.
const replayRounds = 3

// ReplayBench records one trace of the merge-vs-insertion workload with
// the run store's writer options and times (a) raw sequential replay and
// (b) end-to-end profile replay, asserting that it reproduces the
// recording's profile. It diffs two copies of the trace once from their
// footers and once by the full scan, requires both to call them
// identical, and reports the bytes each read. The diffs are not timed:
// each is a sub-millisecond read, mostly two file opens, that a few
// rounds cannot resolve.
func ReplayBench(sw Sweep, now func() int64) (*ReplayBenchResult, error) {
	src := workloads.MergeVsInsertion(sw.MaxSize, sw.Step, sw.Reps)
	cfg := algoprof.Config{Seed: sw.Seed}
	var buf bytes.Buffer
	live, err := algoprof.Record(src, cfg, &buf, trace.WriterOptions{Compress: true})
	if err != nil {
		return nil, err
	}
	r, err := trace.NewReader(buf.Bytes())
	if err != nil {
		return nil, err
	}
	prog, err := compiler.CompileSource(src)
	if err != nil {
		return nil, err
	}

	tmp, err := os.MkdirTemp("", "algoprof-replaybench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	oldPath := filepath.Join(tmp, "old.bin")
	newPath := filepath.Join(tmp, "new.bin")
	if err := os.WriteFile(oldPath, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(newPath, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	md, err := trace.DiffTraceFiles(oldPath, newPath)
	if err != nil {
		return nil, err
	}
	fd, err := trace.DiffTraceFilesFull(oldPath, newPath)
	if err != nil {
		return nil, err
	}
	if !md.Identical || !fd.Identical {
		return nil, fmt.Errorf("replay bench: identical traces diffed as changed (footer=%v full=%v)", md.Identical, fd.Identical)
	}

	liveJSON, err := live.JSON()
	if err != nil {
		return nil, err
	}
	var replayed *algoprof.Profile
	identical := func() error {
		replayJSON, err := replayed.JSON()
		if err != nil {
			return err
		}
		if !bytes.Equal(liveJSON, replayJSON) {
			return fmt.Errorf("replay bench: replayed profile differs from the recording's")
		}
		return nil
	}
	t, err := timeLegs(replayRounds, now, identical,
		leg{"replay", func() error { return r.Replay(func(*pipeline.Record) {}) }},
		leg{"profile-replay", func() (err error) {
			replayed, err = algoprof.ReplayProgram(prog, cfg, r)
			return err
		}},
	)
	if err != nil {
		return nil, err
	}
	return &ReplayBenchResult{
		Frames:          r.NumFrames(),
		Records:         r.Stats().Records,
		TraceBytes:      int64(buf.Len()),
		ReplayNs:        t.ns("replay"),
		ProfileReplayNs: t.ns("profile-replay"),
		DiffMerkleBytes: md.BytesReadOld + md.BytesReadNew,
		DiffFullBytes:   fd.BytesReadOld + fd.BytesReadNew,
	}, nil
}

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

// ReplayBenchResult is the replay + diff throughput benchmark backing
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

	// Merkle-indexed diff vs the full byte scan, over an identical trace
	// pair (the fleet's common case); DiffSpeedup is the per-round full
	// over Merkle time.
	DiffMerkleNs    benchfile.Summary `json:"diff_merkle_ns"`
	DiffFullNs      benchfile.Summary `json:"diff_full_ns"`
	DiffMerkleBytes int64             `json:"diff_merkle_bytes"`
	DiffFullBytes   int64             `json:"diff_full_bytes"`
	DiffSpeedup     benchfile.Summary `json:"diff_speedup"`
}

// replayRounds is how many interleaved rounds ReplayBench times.
const replayRounds = 3

// ReplayBench records one trace of the merge-vs-insertion workload with
// the run store's writer options and measures (a) raw sequential replay,
// (b) end-to-end profile replay, asserting that it reproduces the
// recording's profile, and (c) the Merkle-indexed trace diff against the
// full byte scan it replaces.
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

	// Diff: an identical pair, compared via the Merkle footers alone vs the
	// full scan the footer replaces.
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

	liveJSON, err := live.JSON()
	if err != nil {
		return nil, err
	}
	var replayed *algoprof.Profile
	var md, fd *trace.TraceDiff
	identical := func() error {
		replayJSON, err := replayed.JSON()
		if err != nil {
			return err
		}
		if !bytes.Equal(liveJSON, replayJSON) {
			return fmt.Errorf("replay bench: replayed profile differs from the recording's")
		}
		if !md.Identical || !fd.Identical {
			return fmt.Errorf("replay bench: identical traces diffed as changed (merkle=%v full=%v)", md.Identical, fd.Identical)
		}
		return nil
	}
	t, err := timeLegs(replayRounds, now, identical,
		leg{"replay", func() error { return r.Replay(func(*pipeline.Record) {}) }},
		leg{"profile-replay", func() (err error) {
			replayed, err = algoprof.ReplayProgram(prog, cfg, r)
			return err
		}},
		leg{"diff-merkle", func() (err error) {
			md, err = trace.DiffTraceFiles(oldPath, newPath)
			return err
		}},
		leg{"diff-full", func() (err error) {
			fd, err = trace.DiffTraceFilesFull(oldPath, newPath)
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
		DiffMerkleNs:    t.ns("diff-merkle"),
		DiffFullNs:      t.ns("diff-full"),
		DiffMerkleBytes: md.BytesReadOld + md.BytesReadNew,
		DiffFullBytes:   fd.BytesReadOld + fd.BytesReadNew,
		DiffSpeedup:     t.ratio("diff-full", "diff-merkle"),
	}, nil
}

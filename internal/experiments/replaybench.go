package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"algoprof"
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

	// ReplayNs is the best-of-3 wall time of a raw trace replay: decode,
	// heap binding and dispatch to a no-op consumer.
	ReplayNs int64 `json:"replay_ns"`
	// ProfileReplayNs is the best-of-3 wall time of an end-to-end profile
	// replay (algoprof.ReplayProgram, full profiler attached).
	ProfileReplayNs int64 `json:"profile_replay_ns"`

	// Merkle-indexed diff vs the full byte scan, over an identical trace
	// pair (the fleet's common case).
	DiffMerkleNs    int64   `json:"diff_merkle_ns"`
	DiffFullNs      int64   `json:"diff_full_ns"`
	DiffMerkleBytes int64   `json:"diff_merkle_bytes"`
	DiffFullBytes   int64   `json:"diff_full_bytes"`
	DiffSpeedup     float64 `json:"diff_speedup"`
}

// bestOf runs f reps times and returns the fastest wall time — the standard
// answer to scheduler noise on shared runners.
func bestOf(reps int, now func() int64, f func() error) (int64, error) {
	best := int64(-1)
	for i := 0; i < reps; i++ {
		t0 := now()
		if err := f(); err != nil {
			return 0, err
		}
		if dt := now() - t0; best < 0 || dt < best {
			best = dt
		}
	}
	return best, nil
}

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
	res := &ReplayBenchResult{
		Frames:     r.NumFrames(),
		Records:    r.Stats().Records,
		TraceBytes: int64(buf.Len()),
	}
	const reps = 3
	if res.ReplayNs, err = bestOf(reps, now, func() error {
		return r.Replay(func(*pipeline.Record) {})
	}); err != nil {
		return nil, err
	}

	prog, err := compiler.CompileSource(src)
	if err != nil {
		return nil, err
	}
	var replayed *algoprof.Profile
	if res.ProfileReplayNs, err = bestOf(reps, now, func() error {
		replayed, err = algoprof.ReplayProgram(prog, cfg, r)
		return err
	}); err != nil {
		return nil, err
	}
	liveJSON, err := live.JSON()
	if err != nil {
		return nil, err
	}
	replayJSON, err := replayed.JSON()
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(liveJSON, replayJSON) {
		return nil, fmt.Errorf("replay bench: replayed profile differs from the recording's")
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
	var md, fd *trace.TraceDiff
	if res.DiffMerkleNs, err = bestOf(reps, now, func() error {
		md, err = trace.DiffTraceFiles(oldPath, newPath)
		return err
	}); err != nil {
		return nil, err
	}
	if res.DiffFullNs, err = bestOf(reps, now, func() error {
		fd, err = trace.DiffTraceFilesFull(oldPath, newPath)
		return err
	}); err != nil {
		return nil, err
	}
	if !md.Identical || !fd.Identical {
		return nil, fmt.Errorf("replay bench: identical traces diffed as changed (merkle=%v full=%v)", md.Identical, fd.Identical)
	}
	res.DiffMerkleBytes = md.BytesReadOld + md.BytesReadNew
	res.DiffFullBytes = fd.BytesReadOld + fd.BytesReadNew
	if res.DiffMerkleNs > 0 {
		res.DiffSpeedup = float64(res.DiffFullNs) / float64(res.DiffMerkleNs)
	}
	return res, nil
}

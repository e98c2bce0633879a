package experiments

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"

	"algoprof"
	"algoprof/internal/events/pipeline"
	"algoprof/internal/mj/compiler"
	"algoprof/internal/trace"
	"algoprof/internal/workloads"
)

// replayRounds is how many interleaved sequential/parallel rounds each
// worker count's replay speedup is the median of.
const replayRounds = 7

// benchFrameSize keeps replay-benchmark traces many-framed (the parallel
// replay's work unit is the frame chunk); the writer default of 64 KiB
// would leave small benchmark traces with too few frames to shard.
const benchFrameSize = 4 << 10

// ReplayBenchPoint is one worker count's parallel-replay measurement.
type ReplayBenchPoint struct {
	// Workers is the decode worker count.
	Workers int `json:"workers"`
	// ReplayNs is the best-of-rounds wall time of a full trace replay.
	ReplayNs int64 `json:"replay_ns"`
	// Speedup is the median over rounds of sequential time / this time,
	// each round timing the two back to back.
	Speedup float64 `json:"speedup"`
	// Identical reports that the dispatched record stream matched the
	// sequential replay's exactly (order-sensitive digest).
	Identical bool `json:"identical"`
}

// ReplayBenchResult is the replay + diff throughput benchmark backing
// BENCH_replay.json.
type ReplayBenchResult struct {
	// Trace shape.
	Frames      int    `json:"frames"`
	Checkpoints int    `json:"checkpoints"`
	Records     uint64 `json:"records"`
	TraceBytes  int64  `json:"trace_bytes"`

	// Raw trace replay (decode + heap binding + dispatch to a no-op
	// consumer): sequential baseline and parallel points.
	SeqNs  int64              `json:"seq_ns"`
	Points []ReplayBenchPoint `json:"points"`

	// End-to-end profile replay (full profiler attached) at the largest
	// worker count, against the sequential profile replay.
	ProfileSeqNs      int64   `json:"profile_seq_ns"`
	ProfileParNs      int64   `json:"profile_par_ns"`
	ProfileParWorkers int     `json:"profile_par_workers"`
	ProfileSpeedup    float64 `json:"profile_speedup"`
	// ProfileIdentical reports the two profiles' JSON serializations were
	// byte-identical.
	ProfileIdentical bool `json:"profile_identical"`

	// Merkle-indexed diff vs the full byte scan, over an identical trace
	// pair (the fleet's common case).
	DiffMerkleNs    int64   `json:"diff_merkle_ns"`
	DiffFullNs      int64   `json:"diff_full_ns"`
	DiffMerkleBytes int64   `json:"diff_merkle_bytes"`
	DiffFullBytes   int64   `json:"diff_full_bytes"`
	DiffSpeedup     float64 `json:"diff_speedup"`
}

// replayDigest folds a dispatched record stream into an order-sensitive
// digest, so two replays can be compared without storing either stream.
type replayDigest struct{ h uint64 }

func (d *replayDigest) add(r *pipeline.Record) {
	f := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		f.Write(buf[:])
	}
	put(d.h) // chain: order matters
	put(uint64(r.Op))
	put(uint64(uint32(r.ID)))
	put(uint64(r.Ent))
	put(uint64(r.Aux))
	put(r.Clock)
	put(uint64(r.Kx))
	put(uint64(r.KI))
	f.Write([]byte(r.KS))
	if r.E1 != nil {
		put(r.E1.EntityID())
	}
	if r.E2 != nil {
		put(r.E2.EntityID())
	}
	d.h = f.Sum64()
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

// ReplayBench records one trace of the merge-vs-insertion workload and
// measures (a) sequential vs parallel replay throughput at each worker
// count, asserting stream identity, (b) end-to-end profile replay at the
// largest worker count, asserting profile identity, and (c) the
// Merkle-indexed trace diff against the full byte scan it replaces.
func ReplayBench(sw Sweep, workerSet []int, now func() int64) (*ReplayBenchResult, error) {
	if len(workerSet) == 0 {
		workerSet = []int{1, 2, 4}
	}
	src := workloads.MergeVsInsertion(sw.MaxSize, sw.Step, sw.Reps)
	cfg := algoprof.Config{Seed: sw.Seed}
	var buf bytes.Buffer
	if _, err := algoprof.Record(src, cfg, &buf, trace.WriterOptions{
		Compress:  true,
		FrameSize: benchFrameSize,
	}); err != nil {
		return nil, err
	}
	r, err := trace.NewReader(buf.Bytes())
	if err != nil {
		return nil, err
	}
	res := &ReplayBenchResult{
		Frames:      r.NumFrames(),
		Checkpoints: len(r.Checkpoints()),
		Records:     r.Stats().Records,
		TraceBytes:  int64(buf.Len()),
	}
	const reps = 3
	noop := func(*pipeline.Record) {}
	ctx := context.Background()

	// Digests untimed; timing replays into a no-op consumer.
	var seqDig replayDigest
	if err := r.Replay(seqDig.add); err != nil {
		return nil, err
	}
	for _, w := range workerSet {
		var dig replayDigest
		if err := r.ReplayParallel(ctx, w, dig.add); err != nil {
			return nil, err
		}
		pt := ReplayBenchPoint{Workers: w, Identical: dig.h == seqDig.h}
		// Each round times a sequential and a parallel replay back to
		// back, in alternating order so neither leg always runs warm, so
		// a host whose speed drifts over seconds moves both legs of a
		// round together; the speedup is the median round's.
		legs := []func() error{
			func() error { return r.Replay(noop) },
			func() error { return r.ReplayParallel(ctx, w, noop) },
		}
		ratios := make([]float64, replayRounds)
		for i := range ratios {
			var ns [2]int64
			for j := range legs {
				leg := (i + j) % 2
				if ns[leg], err = bestOf(1, now, legs[leg]); err != nil {
					return nil, err
				}
			}
			seq, par := ns[0], ns[1]
			if res.SeqNs == 0 || seq < res.SeqNs {
				res.SeqNs = seq
			}
			if pt.ReplayNs == 0 || par < pt.ReplayNs {
				pt.ReplayNs = par
			}
			ratios[i] = float64(seq) / float64(max(par, 1))
		}
		sort.Float64s(ratios)
		pt.Speedup = ratios[len(ratios)/2]
		res.Points = append(res.Points, pt)
	}

	// End-to-end profile replay at the largest worker count.
	prog, err := compiler.CompileSource(src)
	if err != nil {
		return nil, err
	}
	maxW := workerSet[len(workerSet)-1]
	res.ProfileParWorkers = maxW
	var seqJSON, parJSON []byte
	if res.ProfileSeqNs, err = bestOf(reps, now, func() error {
		p, err := algoprof.ReplayProgram(prog, cfg, r)
		if err != nil {
			return err
		}
		seqJSON, err = p.JSON()
		return err
	}); err != nil {
		return nil, err
	}
	if res.ProfileParNs, err = bestOf(reps, now, func() error {
		p, err := algoprof.ReplayProgramParallel(ctx, prog, cfg, r, maxW)
		if err != nil {
			return err
		}
		parJSON, err = p.JSON()
		return err
	}); err != nil {
		return nil, err
	}
	res.ProfileIdentical = bytes.Equal(seqJSON, parJSON)
	if res.ProfileParNs > 0 {
		res.ProfileSpeedup = float64(res.ProfileSeqNs) / float64(res.ProfileParNs)
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

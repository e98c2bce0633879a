package trace

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"algoprof/internal/events"
	"algoprof/internal/events/pipeline"
)

// manyRecords builds a stream long enough to span many frames and
// checkpoints: repeated journaled allocations, stores, field traffic, and
// loop events, with entity ids reused across the stream so later frames
// depend on heap state built in earlier ones.
func manyRecords(n int) []pipeline.Record {
	var recs []pipeline.Record
	clock := uint64(0)
	tick := func() uint64 { clock++; return clock }
	for id := int64(1); id <= 7; id++ {
		recs = append(recs, pipeline.Record{Op: pipeline.OpJrnlAlloc, Clock: tick(),
			ID: -1, Ent: id, Aux: 8, Kx: uint8(events.ElemModeAuto), KS: fmt.Sprintf("T%d[]", id%3)})
	}
	for i := 0; i < n; i++ {
		id := int64(1 + i%7)
		switch i % 5 {
		case 0:
			recs = append(recs, pipeline.Record{Op: pipeline.OpJrnlAlloc, Clock: tick(),
				ID: -1, Ent: id, Aux: 8, Kx: uint8(events.ElemModeAuto), KS: fmt.Sprintf("T%d[]", i%3)})
		case 1:
			recs = append(recs, pipeline.Record{Op: pipeline.OpJrnlStore, Clock: tick(),
				Ent: id, ID: int32(i % 8), Kx: pipeline.KeyInt, KI: int64(i)})
		case 2:
			recs = append(recs, pipeline.Record{Op: pipeline.OpFieldPut, Clock: tick(),
				ID: int32(i % 4), Ent: id, Aux: 1 + (id % 7)})
		case 3:
			recs = append(recs, pipeline.Record{Op: pipeline.OpLoopEntry, Clock: tick(), ID: int32(i % 9)})
		case 4:
			recs = append(recs, pipeline.Record{Op: pipeline.OpArrayLoad, Clock: tick(), Ent: id})
		}
	}
	return recs
}

// flatten captures a replay as comparable values: entity interface pointers
// are replaced by their ids, since pointer identity is per-replay.
type flatRec struct {
	pipeline.Record
	id1, id2 uint64
}

func flatten(dispatch func(func(*pipeline.Record)) error, t *testing.T) []flatRec {
	t.Helper()
	var out []flatRec
	if err := dispatch(func(r *pipeline.Record) {
		f := flatRec{Record: *r}
		if r.E1 != nil {
			f.id1 = r.E1.EntityID()
		}
		if r.E2 != nil {
			f.id2 = r.E2.EntityID()
		}
		f.E1, f.E2 = nil, nil
		out = append(out, f)
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func buildRangeTrace(t *testing.T, opts WriterOptions) (*Reader, []flatRec) {
	t.Helper()
	data := buildTrace(t, opts, manyRecords(600))
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	seq := flatten(func(d func(*pipeline.Record)) error { return r.Replay(d) }, t)
	return r, seq
}

func TestReplayRangeMatchesSequential(t *testing.T) {
	for _, opts := range []WriterOptions{
		{FrameSize: 64, CheckpointEvery: 4},
		{FrameSize: 64, CheckpointEvery: 4, Compress: true},
		{FrameSize: 64, CheckpointEvery: -1}, // no checkpoints: catch-up from 0
	} {
		r, seq := buildRangeTrace(t, opts)
		n := r.NumFrames()
		if n < 10 {
			t.Fatalf("trace has only %d frames; test wants many", n)
		}
		if opts.CheckpointEvery > 0 && len(r.Checkpoints()) == 0 {
			t.Fatal("no checkpoint frames written")
		}
		// Per-frame replays must concatenate to the sequential stream.
		var cat []flatRec
		for f := 0; f < n; f++ {
			cat = append(cat, flatten(func(d func(*pipeline.Record)) error {
				return r.ReplayRange(context.Background(), f, f+1, d)
			}, t)...)
		}
		compareFlat(t, "per-frame concatenation", cat, seq)
		// A few multi-frame windows, including checkpoint-crossing ones.
		for _, w := range [][2]int{{0, n}, {1, n - 1}, {n / 3, 2 * n / 3}, {n - 2, n}, {5, 5}} {
			got := flatten(func(d func(*pipeline.Record)) error {
				return r.ReplayRange(context.Background(), w[0], w[1], d)
			}, t)
			want := windowOf(seq, r, w[0], w[1], t)
			compareFlat(t, fmt.Sprintf("window [%d,%d)", w[0], w[1]), got, want)
		}
	}
}

// windowOf slices the sequential stream to the records of frames [lo, hi)
// by replaying each frame individually and counting.
func windowOf(seq []flatRec, r *Reader, lo, hi int, t *testing.T) []flatRec {
	t.Helper()
	start := 0
	for f := 0; f < lo; f++ {
		start += frameCount(r, f, t)
	}
	count := 0
	for f := lo; f < hi; f++ {
		count += frameCount(r, f, t)
	}
	return seq[start : start+count]
}

func frameCount(r *Reader, f int, t *testing.T) int {
	t.Helper()
	n := 0
	if err := r.ReplayRange(context.Background(), f, f+1, func(*pipeline.Record) { n++ }); err != nil {
		t.Fatal(err)
	}
	return n
}

func compareFlat(t *testing.T, what string, got, want []flatRec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

func TestReplayRangeBounds(t *testing.T) {
	r, _ := buildRangeTrace(t, WriterOptions{FrameSize: 64, CheckpointEvery: 4})
	n := r.NumFrames()
	for _, w := range [][2]int{{-1, 1}, {0, n + 1}, {3, 2}} {
		err := r.ReplayRange(context.Background(), w[0], w[1], func(*pipeline.Record) {})
		if err == nil {
			t.Errorf("range [%d,%d): no error", w[0], w[1])
		}
	}
}

func TestReplayParallelMatchesSequential(t *testing.T) {
	for _, opts := range []WriterOptions{
		{FrameSize: 64, CheckpointEvery: 4},
		{FrameSize: 64, CheckpointEvery: 4, Compress: true},
		{FrameSize: 64, CheckpointEvery: -1},
	} {
		r, seq := buildRangeTrace(t, opts)
		for _, workers := range []int{1, 2, 4, 0} {
			got := flatten(func(d func(*pipeline.Record)) error {
				return r.ReplayParallel(context.Background(), workers, d)
			}, t)
			compareFlat(t, fmt.Sprintf("parallel -j %d (compress=%v)", workers, opts.Compress), got, seq)
		}
	}
}

// TestReplayParallelCorrupt: damage one mid-trace frame; parallel replay
// must surface a typed corruption error (not a context cancellation) and
// dispatch only the prefix the sequential replay would have dispatched.
func TestReplayParallelCorrupt(t *testing.T) {
	data := buildTrace(t, WriterOptions{FrameSize: 64, CheckpointEvery: 4}, manyRecords(600))
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	n := r.NumFrames()
	victim := r.frameOff[2*n/3]
	// Flip a payload byte but fix up nothing: the CRC catches it.
	bad := append([]byte(nil), data...)
	bad[victim+6] ^= 0xFF
	rb, err := NewReader(bad)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Stats().Truncated {
		// The strict open failed and recovery kicked in; that path replays
		// sequentially anyway. Force the strict reader shape for the test.
		t.Skip("corruption demoted reader to recovery path")
	}
	var seqN, parN int
	seqErr := rb.Replay(func(*pipeline.Record) { seqN++ })
	parErr := rb.ReplayParallel(context.Background(), 4, func(*pipeline.Record) { parN++ })
	if !errors.Is(parErr, ErrCorrupt) {
		t.Fatalf("parallel error = %v, want ErrCorrupt", parErr)
	}
	if !errors.Is(seqErr, ErrCorrupt) {
		t.Fatalf("sequential error = %v, want ErrCorrupt", seqErr)
	}
	if seqN != parN {
		t.Errorf("dispatched prefix: parallel %d, sequential %d", parN, seqN)
	}
}

// TestReplayParallelCancel: a caller-cancelled context stops a parallel
// replay without deadlock and reports the cancellation.
func TestReplayParallelCancel(t *testing.T) {
	r, _ := buildRangeTrace(t, WriterOptions{FrameSize: 64, CheckpointEvery: 4})
	ctx, cancel := context.WithCancel(context.Background())
	stop := 50
	n := 0
	err := r.ReplayParallel(ctx, 4, func(*pipeline.Record) {
		n++
		if n == stop {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestGoldenV1 pins backward compatibility: a trace written by the v1
// writer (checked in before the v2 format change) must still open, report
// version 1, and replay its full record stream — sequentially, via
// ReplayRange's slow path, and via ReplayParallel's fallback.
func TestGoldenV1(t *testing.T) {
	r, err := Open("testdata/golden_v1.bin")
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Version != VersionV1 {
		t.Fatalf("version = %d, want %d", st.Version, VersionV1)
	}
	if st.Truncated {
		t.Fatal("golden v1 trace needed recovery")
	}
	want := sampleRecords()
	if st.Records != uint64(len(want)) {
		t.Fatalf("index records = %d, want %d", st.Records, len(want))
	}
	if len(r.Checkpoints()) != 0 {
		t.Error("v1 trace reports checkpoints")
	}
	check := func(name string, replay func(d func(*pipeline.Record)) error) {
		got := flatten(replay, t)
		if len(got) != len(want) {
			t.Fatalf("%s: %d records, want %d", name, len(got), len(want))
		}
		for i := range got {
			w := want[i]
			if got[i].Op != w.Op || got[i].Clock != w.Clock || got[i].KS != w.KS ||
				got[i].KI != w.KI || got[i].Ent != w.Ent {
				t.Errorf("%s: record %d = %+v, want %+v", name, i, got[i].Record, w)
			}
		}
	}
	check("sequential", func(d func(*pipeline.Record)) error { return r.Replay(d) })
	check("range", func(d func(*pipeline.Record)) error {
		return r.ReplayRange(context.Background(), 0, r.NumFrames(), d)
	})
	check("parallel", func(d func(*pipeline.Record)) error {
		return r.ReplayParallel(context.Background(), 4, d)
	})
}

// TestV2RoundTripStats: the writer's output opens strictly, reports the
// current version, checkpoints at the configured cadence, and carries a
// Merkle footer whose root matches the writer's — the v2 surface, which
// every later version keeps.
func TestV2RoundTripStats(t *testing.T) {
	var buf bytes.Buffer
	tw := NewWriter(&buf, WriterOptions{FrameSize: 64, CheckpointEvery: 4})
	recs := manyRecords(600)
	for i := range recs {
		tw.Record(&recs[i])
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Version != Version {
		t.Fatalf("version = %d, want %d", st.Version, Version)
	}
	if st.Records != uint64(len(recs)) {
		t.Fatalf("records = %d, want %d", st.Records, len(recs))
	}
	cks := r.Checkpoints()
	if len(cks) == 0 {
		t.Fatal("no checkpoints")
	}
	for i, c := range cks {
		if c <= 0 || c >= r.NumFrames() || (i > 0 && c <= cks[i-1]) {
			t.Fatalf("bad checkpoint frame index %d at %d", c, i)
		}
	}
	if !r.hasMerkle {
		t.Fatal("no merkle footer")
	}
	if r.root != tw.MerkleRoot() {
		t.Fatalf("reader root %s != writer root %s", r.root, tw.MerkleRoot())
	}
	if got := merkleRoot(r.leaves); got != r.root {
		t.Fatalf("footer leaves hash to %s, root says %s", got, r.root)
	}
}

// goldenV2Records is how many records of manyRecords the v2 writer wrote
// into testdata/golden_v2.bin, under WriterOptions{Compress: true,
// FrameSize: 64, CheckpointEvery: 2}.
const goldenV2Records = 120

// TestGoldenV2 pins v2 compatibility the way TestGoldenV1 pins v1: a trace
// the v2 writer wrote must still open, report version 2, list its
// checkpoints, and replay exactly the records it was written from —
// sequentially, through ReplayRange, and through ReplayParallel.
func TestGoldenV2(t *testing.T) {
	r, err := Open("testdata/golden_v2.bin")
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Version != 2 {
		t.Fatalf("version = %d, want 2", st.Version)
	}
	if st.Truncated || !st.Compressed {
		t.Fatalf("stats = %+v, want a complete compressed trace", st)
	}
	want := manyRecords(goldenV2Records)
	if st.Records != uint64(len(want)) {
		t.Fatalf("index records = %d, want %d", st.Records, len(want))
	}
	if got := fmt.Sprint(r.Checkpoints()); got != "[2 5 8 11 14]" {
		t.Fatalf("checkpoints = %s", got)
	}
	if n := r.NumFrames(); n <= chunkFrames {
		t.Fatalf("%d frames: too few for a parallel replay", n)
	}
	check := func(name string, replay func(d func(*pipeline.Record)) error) {
		got := flatten(replay, t)
		if len(got) != len(want) {
			t.Fatalf("%s: %d records, want %d", name, len(got), len(want))
		}
		for i, g := range got {
			if g.Record != want[i] || uint64(g.Ent) != g.id1 {
				t.Fatalf("%s: record %d = %+v (entity %d), want %+v", name, i, g.Record, g.id1, want[i])
			}
		}
	}
	check("sequential", func(d func(*pipeline.Record)) error { return r.Replay(d) })
	check("range", func(d func(*pipeline.Record)) error {
		return r.ReplayRange(context.Background(), 0, r.NumFrames(), d)
	})
	check("parallel", func(d func(*pipeline.Record)) error {
		return r.ReplayParallel(context.Background(), 4, d)
	})
}

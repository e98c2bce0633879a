package trace

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"algoprof/internal/events"
	"algoprof/internal/events/pipeline"
	"algoprof/internal/faultinject"
)

// manyRecords builds a stream long enough to span many frames: repeated
// journaled allocations, stores, field traffic, and loop events, with
// entity ids reused across the stream so later frames depend on heap
// state built in earlier ones.
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

// TestReplayCorruptMidTrace: a damaged mid-trace frame fails the replay
// as typed corruption that names the frame's file offset, after
// dispatching exactly the records of the frames before it. The damage is
// caught either by the frame's CRC or, with the CRC fixed up, by the
// event decoder.
func TestReplayCorruptMidTrace(t *testing.T) {
	data := buildTrace(t, WriterOptions{FrameSize: 64}, manyRecords(600))
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	mid := r.NumFrames() / 2
	off := r.ix.FrameOff[mid]
	var before uint64
	for _, n := range r.ix.FrameRecords[:mid] {
		before += n
	}
	payload, _, err := readFrame(data, off, nil)
	if err != nil {
		t.Fatal(err)
	}
	badTag := append([]byte(nil), payload...)
	badTag[0] = 0xEE // not an event tag
	for name, damage := range map[string]func([]byte){
		"crc":   func(b []byte) { b[off+6] ^= 0xFF },
		"event": func(b []byte) { reframe(t, b, off, badTag) },
	} {
		bad := append([]byte(nil), data...)
		damage(bad)
		rb, err := NewReader(bad)
		if err != nil {
			t.Fatal(err)
		}
		if rb.Stats().Truncated {
			t.Fatalf("%s: a damaged data frame sent the reader to recovery", name)
		}
		var n uint64
		err = rb.ReplayContext(context.Background(), func(*pipeline.Record) { n++ })
		var ce *CorruptError
		if !errors.Is(err, ErrCorrupt) || !errors.As(err, &ce) {
			t.Fatalf("%s: err = %v, want a *CorruptError", name, err)
		}
		if ce.Off != off {
			t.Errorf("%s: error names offset %d, want frame %d's %d", name, ce.Off, mid, off)
		}
		if n != before {
			t.Errorf("%s: dispatched %d records, want the %d of the frames before the damage", name, n, before)
		}
	}
}

// TestReplayCorruptFaultClass: CRC damage to the first, a middle or the
// last data frame fails both replay entry points with an error the fault
// taxonomy classes as Corruption, so a caller retries no damaged trace.
func TestReplayCorruptFaultClass(t *testing.T) {
	data := buildTrace(t, WriterOptions{FrameSize: 64}, manyRecords(600))
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	noop := func(*pipeline.Record) {}
	for _, frame := range []int{0, r.NumFrames() / 2, r.NumFrames() - 1} {
		bad := append([]byte(nil), data...)
		bad[r.ix.FrameOff[frame]+6] ^= 0xFF
		rb, err := NewReader(bad)
		if err != nil {
			t.Fatalf("frame %d: NewReader: %v", frame, err)
		}
		for name, replay := range map[string]func() error{
			"Replay":        func() error { return rb.Replay(noop) },
			"ReplayContext": func() error { return rb.ReplayContext(context.Background(), noop) },
		} {
			err := replay()
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("frame %d %s: err = %v, want ErrCorrupt", frame, name, err)
			}
			if faultinject.ClassOf(err) != faultinject.Corruption {
				t.Errorf("frame %d %s: fault class %v, want Corruption", frame, name, faultinject.ClassOf(err))
			}
		}
	}
}

// TestReplayCancel: a context cancelled mid-replay stops the replay at the
// next frame boundary with context.Canceled. The frame in progress is
// dispatched to its end; no later frame is.
func TestReplayCancel(t *testing.T) {
	r, err := NewReader(buildTrace(t, WriterOptions{FrameSize: 64}, manyRecords(600)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const stop = 50
	var n uint64
	err = r.ReplayContext(ctx, func(*pipeline.Record) {
		if n++; n == stop {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var end uint64
	for _, c := range r.ix.FrameRecords {
		if end += c; end >= stop {
			break
		}
	}
	if end == r.Stats().Records {
		t.Fatalf("record %d is in the last frame; the test wants later frames", stop)
	}
	if n != end {
		t.Fatalf("dispatched %d records, want %d: the end of the frame holding record %d", n, end, stop)
	}
}

// TestGoldenV1 pins backward compatibility: a trace written by the v1
// writer (checked in before the v2 format change) must still open, report
// version 1, and replay its full record stream.
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
	got := flatten(func(d func(*pipeline.Record)) error { return r.Replay(d) }, t)
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range got {
		w := want[i]
		if got[i].Op != w.Op || got[i].Clock != w.Clock || got[i].KS != w.KS ||
			got[i].KI != w.KI || got[i].Ent != w.Ent {
			t.Errorf("record %d = %+v, want %+v", i, got[i].Record, w)
		}
	}
}

// TestV2RoundTripStats: the writer's output opens strictly, reports the
// current version, lists no checkpoint frames, and carries a Merkle footer
// whose root matches the writer's — the v2 surface, which every later
// version keeps.
func TestV2RoundTripStats(t *testing.T) {
	var buf bytes.Buffer
	tw := NewWriter(&buf, WriterOptions{FrameSize: 64})
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
	if r.NumFrames() < 10 {
		t.Fatalf("%d frames; the test wants many", r.NumFrames())
	}
	if cks := r.Checkpoints(); len(cks) != 0 {
		t.Fatalf("checkpoints = %v, want none", cks)
	}
	if !r.ix.HasMerkle {
		t.Fatal("no merkle footer")
	}
	if r.ix.Root != tw.MerkleRoot() {
		t.Fatalf("reader root %s != writer root %s", r.ix.Root, tw.MerkleRoot())
	}
	if got := merkleRoot(r.ix.Leaves); got != r.ix.Root {
		t.Fatalf("footer leaves hash to %s, root says %s", got, r.ix.Root)
	}
}

// goldenRecords is how many records of manyRecords the v2 and v3 writers
// wrote into testdata/golden_v2.bin and testdata/golden_v3.bin, each
// compressed, with 64-byte frames and a checkpoint frame after every
// second data frame (those writers' CheckpointEvery: 2).
const goldenRecords = 120

// TestGoldenV2 pins v2 compatibility the way TestGoldenV1 pins v1: a trace
// the v2 writer wrote must still open, report version 2, list its
// checkpoints, and replay exactly the records it was written from.
func TestGoldenV2(t *testing.T) { checkGolden(t, "testdata/golden_v2.bin", 2) }

// TestGoldenV3 pins v3, the format whose writer emitted checkpoint frames,
// the same way: a trace the v3 writer wrote with checkpoints must open,
// report version 3, list its checkpoint frames, and replay exactly the
// records it was written from.
func TestGoldenV3(t *testing.T) { checkGolden(t, "testdata/golden_v3.bin", 3) }

// checkGolden opens a pinned compressed trace of manyRecords(goldenRecords)
// and checks its version and checkpoint frames, and that replay skips the
// checkpoint frames and yields exactly the records written.
func checkGolden(t *testing.T, path string, version uint32) {
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Version != version {
		t.Fatalf("version = %d, want %d", st.Version, version)
	}
	if st.Truncated || !st.Compressed {
		t.Fatalf("stats = %+v, want a complete compressed trace", st)
	}
	want := manyRecords(goldenRecords)
	if st.Records != uint64(len(want)) {
		t.Fatalf("index records = %d, want %d", st.Records, len(want))
	}
	if got := fmt.Sprint(r.Checkpoints()); got != "[2 5 8 11 14]" {
		t.Fatalf("checkpoints = %s", got)
	}
	got := flatten(func(d func(*pipeline.Record)) error { return r.Replay(d) }, t)
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i, g := range got {
		if g.Record != want[i] || uint64(g.Ent) != g.id1 {
			t.Fatalf("record %d = %+v (entity %d), want %+v", i, g.Record, g.id1, want[i])
		}
	}
}

package trace

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"algoprof/internal/events"
	"algoprof/internal/events/pipeline"
)

// deltaRecords exercises the v3 entity-id coding: main-thread births and
// then births of a thread span (1<<40+k), the largest int64 id, the nil
// entity in every entity field that may hold it, one entity twice in a row
// (delta 0, which must not decode as nil), negative deltas, deltas across
// spans, and OpInstr pcs, which stay absolute.
func deltaRecords(n int) []pipeline.Record {
	const thread = int64(1) << events.SpanShift
	var recs []pipeline.Record
	add := func(r pipeline.Record) {
		r.Clock = uint64(len(recs) + 1)
		recs = append(recs, r)
	}
	alloc := func(id int64, classID int32, capacity int64, name string) {
		add(pipeline.Record{Op: pipeline.OpJrnlAlloc, ID: classID, Ent: id, Aux: capacity,
			Kx: uint8(events.ElemModeAuto), KS: name})
	}
	for id := int64(1); id <= 6; id++ {
		alloc(id, 2, 0, "Node")
	}
	for k := int64(1); k <= 4; k++ {
		alloc(thread+k, -1, 8, "Node[]")
	}
	alloc(math.MaxInt64, -1, 4, "Object[]")
	for i := 0; i < n; i++ {
		add(pipeline.Record{Op: pipeline.OpFieldGet, ID: 1, Ent: 3})
		add(pipeline.Record{Op: pipeline.OpFieldGet, ID: 1, Ent: 3})
		add(pipeline.Record{Op: pipeline.OpFieldPut, ID: 1, Ent: 5})
		add(pipeline.Record{Op: pipeline.OpFieldPut, ID: 1, Ent: 2, Aux: int64(1 + i%6)})
		add(pipeline.Record{Op: pipeline.OpArrayStore, Ent: thread + 2, Aux: 4})
		add(pipeline.Record{Op: pipeline.OpJrnlStore, Ent: thread + 1, ID: int32(i % 8), Kx: pipeline.KeyNone, Aux: thread + 3})
		add(pipeline.Record{Op: pipeline.OpJrnlStore, Ent: thread + 4, ID: int32(i % 8), Kx: pipeline.KeyNone})
		add(pipeline.Record{Op: pipeline.OpJrnlStore, Ent: math.MaxInt64, ID: int32(i % 4), Kx: pipeline.KeyInt, KI: int64(-i)})
		add(pipeline.Record{Op: pipeline.OpArrayLoad, Ent: math.MaxInt64})
		add(pipeline.Record{Op: pipeline.OpArrayLoad, Ent: 1})
		add(pipeline.Record{Op: pipeline.OpArrayLoad})
		add(pipeline.Record{Op: pipeline.OpInstr, ID: 2, Ent: int64(1000 + i)})
		add(pipeline.Record{Op: pipeline.OpAlloc, ID: 2, Ent: 6})
		add(pipeline.Record{Op: pipeline.OpLoopBack, ID: 4})
	}
	return recs
}

// checkReplayed compares a replay with the records it was written from:
// every field, and the entity each id bound to.
func checkReplayed(t *testing.T, what string, got []flatRec, want []pipeline.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Record != w {
			t.Fatalf("%s: record %d = %+v, want %+v", what, i, g.Record, w)
		}
		var e1, e2 int64
		switch w.Op {
		case pipeline.OpFieldGet, pipeline.OpArrayLoad, pipeline.OpAlloc, pipeline.OpJrnlAlloc:
			e1 = w.Ent
		case pipeline.OpFieldPut, pipeline.OpArrayStore:
			e1, e2 = w.Ent, w.Aux
		case pipeline.OpJrnlStore:
			e1 = w.Ent
			if w.Kx == pipeline.KeyNone {
				e2 = w.Aux
			}
		}
		if g.id1 != uint64(e1) || g.id2 != uint64(e2) {
			t.Fatalf("%s: record %d (%v) bound entities %d, %d; want %d, %d", what, i, w.Op, g.id1, g.id2, e1, e2)
		}
	}
}

// TestV3RoundTrip: records written as v3 come back unchanged through
// every replay path, with and without compression, and across frame cuts
// that reset the entity-id base.
func TestV3RoundTrip(t *testing.T) {
	want := deltaRecords(200)
	for _, opts := range []WriterOptions{
		{FrameSize: 64, CheckpointEvery: 3},
		{FrameSize: 64, CheckpointEvery: 3, Compress: true},
		{Compress: true},
	} {
		name := fmt.Sprintf("frame=%d compress=%v", opts.FrameSize, opts.Compress)
		r, err := NewReader(buildTrace(t, opts, want))
		if err != nil {
			t.Fatal(err)
		}
		if v := r.Stats().Version; v != Version || Version != 3 {
			t.Fatalf("%s: version %d, want 3", name, v)
		}
		ctx := context.Background()
		seq := flatten(func(d func(*pipeline.Record)) error { return r.Replay(d) }, t)
		checkReplayed(t, name+" sequential", seq, want)
		checkReplayed(t, name+" range", flatten(func(d func(*pipeline.Record)) error {
			return r.ReplayRange(ctx, 0, r.NumFrames(), d)
		}, t), want)
		checkReplayed(t, name+" parallel", flatten(func(d func(*pipeline.Record)) error {
			return r.ReplayParallel(ctx, 4, d)
		}, t), want)
		ck := r.Checkpoints()
		if opts.FrameSize == 0 {
			continue
		}
		if r.NumFrames() <= 2*chunkFrames || len(ck) < 3 {
			t.Fatalf("%s: %d frames, checkpoints %v; want many", name, r.NumFrames(), ck)
		}
		// A range that starts right after a mid-trace checkpoint decodes
		// its first frame with the heap seeded from that checkpoint.
		lo := ck[len(ck)/2] + 1
		for _, hi := range []int{lo + 1, lo + 4, r.NumFrames()} {
			got := flatten(func(d func(*pipeline.Record)) error { return r.ReplayRange(ctx, lo, hi, d) }, t)
			compareFlat(t, fmt.Sprintf("%s range [%d,%d)", name, lo, hi), got, windowOf(seq, r, lo, hi, t))
		}
	}
}

// TestV3UnrepresentableDelta: the one delta the coding cannot carry —
// exactly 2^63, which would wrap onto the nil code — fails the writer
// instead of replaying as nil.
func TestV3UnrepresentableDelta(t *testing.T) {
	var buf bytes.Buffer
	tw := NewWriter(&buf, WriterOptions{})
	for _, id := range []int64{1, math.MinInt64 + 1} {
		tw.Record(&pipeline.Record{Op: pipeline.OpArrayLoad, Clock: 1, Ent: id})
	}
	if err := tw.Close(); err == nil {
		t.Fatal("Close succeeded on an entity id 2^63 from the previous one")
	}
}

// TestHostileEntityIDsBounded: a trace of 50 000 FieldGets on random
// 63-bit ids replays with memory proportional to its records: every id is
// a stand-in for an entity never journaled, so none may stretch a dense
// slice toward its value. Births on random ids are held to the same bound,
// and open at most maxHeapSpans dense spans.
func TestHostileEntityIDsBounded(t *testing.T) {
	for _, op := range []pipeline.Op{pipeline.OpFieldGet, pipeline.OpJrnlAlloc} {
		rng := rand.New(rand.NewPCG(20, 3))
		recs := make([]pipeline.Record, 50_000)
		for i := range recs {
			recs[i] = pipeline.Record{Op: op, Clock: uint64(i + 1), ID: 1, Ent: 1 + rng.Int64N(math.MaxInt64),
				Kx: uint8(events.ElemModeAuto), KS: "Node"}
		}
		r, err := NewReader(buildTrace(t, WriterOptions{Compress: true}, recs))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		if b := heapBytes(func() { err = r.Replay(func(*pipeline.Record) { n++ }) }); b >= 16<<20 {
			t.Errorf("%v: replaying %d records on random ids allocated %d bytes, want < 16 MiB", op, len(recs), b)
		}
		if err != nil || n != len(recs) {
			t.Fatalf("%v: replayed %d of %d records: %v", op, n, len(recs), err)
		}
	}
	var h shadowHeap
	rng := rand.New(rand.NewPCG(20, 4))
	for range 1000 {
		if _, err := h.alloc(1+rng.Int64N(math.MaxInt64), 1, 0, events.ElemModeAuto, "Node"); err != nil {
			t.Fatal(err)
		}
	}
	if len(h.spans) > maxHeapSpans || h.len() != 1000 {
		t.Fatalf("%d births on random ids: %d spans, %d entities", 1000, len(h.spans), h.len())
	}
}

// TestShadowHeapSpans: births in id order fill one dense span per thread,
// stand-ins for unjournaled ids go to the map, and a birth replaces the
// stand-in made before it, in the dense slice and in checkpoints alike.
func TestShadowHeapSpans(t *testing.T) {
	const thread = int64(1) << events.SpanShift
	var h shadowHeap
	birth := func(id int64) *shadowEntity {
		e, err := h.alloc(id, 1, 0, events.ElemModeAuto, "Node")
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	for id := int64(1); id <= 5; id++ {
		birth(id)
	}
	standIn := h.get(thread + 7)
	birth(thread + 1)
	early := h.get(6)
	six := birth(6)
	if len(h.spans) != 2 || len(h.spans[0].ents) != 6 || len(h.other) != 1 {
		t.Fatalf("spans %d (main %d ids), map %d; want 2 spans, 6 main ids, 1 stand-in",
			len(h.spans), len(h.spans[0].ents), len(h.other))
	}
	if early == six || h.get(6) != six || h.get(thread+7) != standIn || h.get(0) != nil {
		t.Fatal("lookups do not resolve to the latest binding of each id")
	}
	again := birth(3)
	if h.get(3) != again || h.len() != 8 {
		t.Fatalf("re-birth of id 3: resolves to %p (want %p), heap holds %d ids", h.get(3), again, h.len())
	}
	six.setLink(0, standIn)
	back, err := decodeCheckpoint(encodeCheckpoint(&h))
	if err != nil {
		t.Fatal(err)
	}
	if back.len() != h.len() {
		t.Fatalf("checkpoint round trip holds %d ids, want %d", back.len(), h.len())
	}
	if l := back.get(6).links; len(l) != 1 || l[0].target != back.get(thread+7) {
		t.Fatalf("checkpointed link of id 6 = %+v", l)
	}
}

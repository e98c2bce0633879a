package trace

import (
	"bytes"
	"compress/flate"
	"io"
	"math"
	"runtime"
	"testing"

	"algoprof/internal/events"
	"algoprof/internal/events/pipeline"
)

// steadyRecords journals a few entities, then cycles through n events that
// only touch them: the steady state of a long recording, where no record
// brings a new entity or string into the stream.
func steadyRecords(n int) []pipeline.Record {
	var recs []pipeline.Record
	for id := int64(1); id <= 4; id++ {
		recs = append(recs, pipeline.Record{Op: pipeline.OpJrnlAlloc, Clock: uint64(id),
			ID: -1, Ent: id, Aux: 16, Kx: uint8(events.ElemModeAuto), KS: "Node[]"})
	}
	for i := 0; i < n; i++ {
		id := int64(1 + i%4)
		r := pipeline.Record{Clock: uint64(len(recs) + 1)}
		switch i % 6 {
		case 0:
			r.Op, r.ID = pipeline.OpLoopBack, 3
		case 1:
			r.Op, r.ID, r.Ent = pipeline.OpFieldGet, 2, id
		case 2:
			r.Op, r.ID, r.Ent, r.Kx, r.KI = pipeline.OpJrnlStore, int32(i%16), id, pipeline.KeyInt, int64(i)
		case 3:
			r.Op, r.Ent = pipeline.OpArrayLoad, id
		case 4:
			r.Op, r.ID, r.Ent, r.Aux = pipeline.OpFieldPut, 2, id, 1+id%4
		case 5:
			r.Op, r.ID = pipeline.OpMethodEntry, 7
		}
		recs = append(recs, r)
	}
	return recs
}

// heapBytes returns the bytes f allocates on the heap. Like
// testing.AllocsPerRun it runs on one P: sync.Pool keeps a per-P private
// slot, and a goroutine moved to another P would miss it.
func heapBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWriterSteadyStateAllocs pins the encoder's per-record cost: once the
// first frames have filled the writer's buffers, recording allocates only
// per frame (index entry, Merkle leaf), and a frame's compressor comes
// from the pool rather than a fresh flate.NewWriter (about 800 KiB).
func TestWriterSteadyStateAllocs(t *testing.T) {
	recs := steadyRecords(200_000)
	tw := NewWriter(io.Discard, WriterOptions{Compress: true})
	pass := func() {
		for i := range recs {
			tw.Record(&recs[i])
		}
	}
	pass() // warm up: several frames
	allocs := testing.AllocsPerRun(3, pass)
	bytesPerRecord := float64(heapBytes(pass)) / float64(len(recs))
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if per := allocs / float64(len(recs)); per >= 0.01 {
		t.Errorf("Writer.Record: %.4f allocations per record, want < 0.01", per)
	}
	if bytesPerRecord >= 1 {
		t.Errorf("Writer.Record: %.2f heap bytes per record, want < 1", bytesPerRecord)
	}
}

// TestReplayAllocsFlat pins the decoder: every frame decodes into the same
// record and, when compressed, inflates through the same pooled reader into
// the same buffer, so a replay's allocations do not grow with the number of
// records. The one per-frame cost left is compress/flate's own: it builds
// the overflow link tables of each dynamic Huffman block afresh.
func TestReplayAllocsFlat(t *testing.T) {
	noop := func(*pipeline.Record) {}
	type cost struct {
		replay, bytes float64
		frames        int
	}
	measure := func(opts WriterOptions, n int) cost {
		r, err := NewReader(buildTrace(t, opts, steadyRecords(n)))
		if err != nil {
			t.Fatal(err)
		}
		replay := func() {
			if err := r.Replay(noop); err != nil {
				t.Fatal(err)
			}
		}
		c := cost{frames: r.NumFrames()}
		c.replay = testing.AllocsPerRun(10, replay)
		// A replay whose pooled inflater is gone allocates a fresh one,
		// about 32 KiB once; the race detector's sync.Pool drops pooled
		// items at random. The least of several replays is the steady
		// cost, which a per-frame allocation still raises in every one.
		c.bytes = math.Inf(1)
		for i := 0; i < 8; i++ {
			c.bytes = min(c.bytes, float64(heapBytes(replay)))
		}
		return c
	}
	for _, compress := range []bool{false, true} {
		opts := WriterOptions{Compress: compress}
		small, big := measure(opts, 2_000), measure(opts, 600_000)
		if big.frames < 10*small.frames {
			t.Fatalf("compress=%v: large trace has %d frames, small %d; want many more", compress, big.frames, small.frames)
		}
		extra := float64(big.frames - small.frames)
		slack := 0.0
		if compress {
			slack = 64 * extra // Huffman link tables
		}
		if big.replay > small.replay+slack {
			t.Errorf("compress=%v: Replay makes %v allocations over %d frames, %v over %d", compress, big.replay, big.frames, small.replay, small.frames)
		}
		if perFrame := (big.bytes - small.bytes) / extra; perFrame > 16<<10 {
			t.Errorf("compress=%v: Replay allocates %.0f bytes per extra frame, want <= 16 KiB", compress, perFrame)
		}
	}
}

// TestPooledCompressorBytesIdentical holds the trace bytes to the format:
// a writer whose frames reuse pooled compressors writes what a second
// writer on the same records writes, and every frame equals the payload
// compressed by a fresh flate.NewWriter.
func TestPooledCompressorBytesIdentical(t *testing.T) {
	recs := manyRecords(20_000)
	opts := WriterOptions{Compress: true, FrameSize: 4096}
	first := buildTrace(t, opts, recs)
	second := buildTrace(t, opts, recs)
	if !bytes.Equal(first, second) {
		t.Fatal("two writers on the same records wrote different bytes")
	}
	raw := opts
	raw.Compress = false
	plain := buildTrace(t, raw, recs)
	rc, err := NewReader(first)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewReader(plain)
	if err != nil {
		t.Fatal(err)
	}
	if rc.NumFrames() != rp.NumFrames() {
		t.Fatalf("compressed trace has %d frames, raw %d", rc.NumFrames(), rp.NumFrames())
	}
	for f := 0; f < rc.NumFrames(); f++ {
		got, _, err := readFrame(first, rc.ix.FrameOff[f], nil)
		if err != nil {
			t.Fatal(err)
		}
		payload, _, err := readFrame(plain, rp.ix.FrameOff[f], nil)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		fw, err := flate.NewWriter(&want, flate.DefaultCompression)
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(payload)
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("frame %d: %d compressed bytes differ from a fresh compressor's %d", f, len(got), want.Len())
		}
	}
}

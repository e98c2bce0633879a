package trace

import (
	"bytes"
	"compress/flate"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"algoprof/internal/events"
	"algoprof/internal/events/pipeline"
)

// WriterOptions configures trace capture.
type WriterOptions struct {
	// Compress DEFLATE-compresses data-frame payloads (FlagCompress).
	Compress bool
	// FrameSize is the payload byte count at which a frame is cut
	// (0 = 64 KiB).
	FrameSize int
	// MaxBytes stops capture once the file reaches this size (0 =
	// unlimited; checked at frame boundaries, so the file can overshoot
	// by up to one frame). Later records are counted but not written;
	// Close still writes the index and trailer, so the truncated trace
	// is a complete, replayable file covering the run's prefix.
	MaxBytes int64
	// CheckpointEvery is the number of data frames between heap-checkpoint
	// frames (0 = the default, DefaultCheckpointEvery; negative disables
	// checkpoints, which forfeits sharded replay but keeps the Merkle
	// footer). Checkpoints are what let ReplayRange and ReplayParallel
	// seed a shard's shadow heap without decoding the whole prefix.
	CheckpointEvery int
}

// DefaultCheckpointEvery is the default checkpoint cadence: one heap
// checkpoint per this many data frames (~1 MiB of raw payload at the
// default frame size).
const DefaultCheckpointEvery = 16

// Writer streams pipeline records to a trace file. It implements both
// events.Listener (as a no-op, so it can be added to a Transport) and
// pipeline.RecordTap, which is how it actually receives the stream: every
// record verbatim, including heap-journal records.
//
// Writer methods are called from a consumer goroutine; errors are latched
// and reported by Close, since the record callback cannot fail.
type Writer struct {
	events.NopListener
	w    io.Writer
	opts WriterOptions
	err  error

	off       int64         // bytes written to w so far
	buf       []byte        // current frame payload under construction
	zw        *flate.Writer // pooled compressor, held until Close or Abort
	zbuf      bytes.Buffer  // current frame's compressed payload
	strs      map[string]int
	prevClock uint64
	prevEnt   int64 // the frame's previous non-nil entity id (putEnt)

	frames       []frameInfo
	frameRecords uint64
	totalRecords uint64
	finalClock   uint64
	instructions uint64
	closed       bool
	truncated    bool
	dropped      uint64

	// Format v2 state: the writer-side mirror of the replay shadow heap
	// (serialized into checkpoint frames), the checkpoint cadence counter,
	// the checkpointed frame indices, and one Merkle leaf per frame.
	mirror    shadowHeap
	sinceCkpt int
	ckpts     []int
	leaves    []Hash
	root      Hash
}

type frameInfo struct {
	off     int64
	records uint64
}

// NewWriter writes the file header and returns a Writer ready to receive
// records. The caller owns w and closes it after Close.
func NewWriter(w io.Writer, opts WriterOptions) *Writer {
	if opts.FrameSize <= 0 {
		opts.FrameSize = 64 << 10
	}
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = DefaultCheckpointEvery
	}
	tw := &Writer{w: w, opts: opts, strs: map[string]int{}}
	var flags uint32
	if opts.Compress {
		flags |= FlagCompress
	}
	hdr := make([]byte, 0, headerSize)
	hdr = append(hdr, Magic...)
	hdr = le32(hdr, Version)
	hdr = le32(hdr, flags)
	tw.write(hdr)
	return tw
}

func le32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func le64(b []byte, v uint64) []byte {
	b = le32(b, uint32(v))
	return le32(b, uint32(v>>32))
}

func (tw *Writer) write(p []byte) {
	if tw.err != nil {
		return
	}
	n, err := tw.w.Write(p)
	tw.off += int64(n)
	if err != nil {
		tw.err = &IOError{Op: "write", Off: tw.off, Err: err}
	}
}

// Record implements pipeline.RecordTap: it appends one record to the
// current frame, cutting a new frame when the payload is full.
func (tw *Writer) Record(r *pipeline.Record) {
	if tw.err != nil || tw.closed {
		return
	}
	if tw.truncated {
		tw.dropped++
		return
	}
	tw.encode(r)
	// Mirror the reader's shadow-heap mutation for this record, so a
	// checkpoint at the next frame boundary captures exactly the heap a
	// sequential replay holds there. A record the mirror rejects (e.g. a
	// store past the journaled capacity) is one the reader will reject at
	// replay too, so the stream past it is unreachable either way — the
	// writer records it verbatim and leaves the verdict to the reader.
	_ = tw.mirror.applyRecord(r)
	tw.frameRecords++
	tw.totalRecords++
	tw.finalClock = r.Clock
	if len(tw.buf) >= tw.opts.FrameSize {
		tw.flushFrame()
		if m := tw.opts.MaxBytes; m > 0 && tw.off >= m {
			tw.truncated = true
			return
		}
		if k := tw.opts.CheckpointEvery; k > 0 {
			tw.sinceCkpt++
			if tw.sinceCkpt >= k {
				tw.writeCheckpoint()
				tw.sinceCkpt = 0
			}
		}
	}
}

// sid interns s in the current frame's string table, emitting a definition
// on first use, and returns its frame-local id.
func (tw *Writer) sid(s string) int {
	if id, ok := tw.strs[s]; ok {
		return id
	}
	id := len(tw.strs)
	tw.strs[s] = id
	tw.buf = append(tw.buf, tagStrDef)
	tw.buf = putUvarint(tw.buf, uint64(len(s)))
	tw.buf = append(tw.buf, s...)
	return id
}

func (tw *Writer) encode(r *pipeline.Record) {
	// Intern strings first: a definition must precede the event that
	// references it in the stream.
	sid := -1
	switch {
	case r.Op == pipeline.OpJrnlAlloc:
		sid = tw.sid(r.KS)
	case r.Op == pipeline.OpJrnlStore && r.Kx == pipeline.KeyStr:
		sid = tw.sid(r.KS)
	}
	b := append(tw.buf, byte(r.Op))
	b = putUvarint(b, r.Clock-tw.prevClock)
	tw.prevClock = r.Clock
	switch r.Op {
	case pipeline.OpLoopEntry, pipeline.OpLoopBack, pipeline.OpLoopExit,
		pipeline.OpMethodEntry, pipeline.OpMethodExit:
		b = putUvarint(b, uint64(r.ID))
	case pipeline.OpFieldGet:
		b = putUvarint(b, uint64(r.ID))
		b = tw.putEnt(b, r.Ent)
	case pipeline.OpFieldPut:
		b = putUvarint(b, uint64(r.ID))
		b = tw.putEnt(b, r.Ent)
		b = tw.putEnt(b, r.Aux)
	case pipeline.OpArrayLoad:
		b = tw.putEnt(b, r.Ent)
	case pipeline.OpArrayStore:
		b = tw.putEnt(b, r.Ent)
		b = tw.putEnt(b, r.Aux)
	case pipeline.OpAlloc:
		b = putUvarint(b, uint64(r.ID))
		b = tw.putEnt(b, r.Ent)
	case pipeline.OpInstr:
		// Ent holds a pc, not an entity: absolute.
		b = putUvarint(b, uint64(r.ID))
		b = putUvarint(b, uint64(r.Ent))
	case pipeline.OpInputRead, pipeline.OpOutputWrite:
		// Tag and clock only.
	case pipeline.OpJrnlAlloc:
		b = tw.putEnt(b, r.Ent)
		b = putVarint(b, int64(r.ID))
		b = putUvarint(b, uint64(r.Aux))
		b = append(b, r.Kx)
		b = putUvarint(b, uint64(sid))
	case pipeline.OpJrnlStore:
		b = tw.putEnt(b, r.Ent)
		b = putUvarint(b, uint64(r.ID))
		b = append(b, r.Kx)
		switch r.Kx {
		case pipeline.KeyInt:
			b = putVarint(b, r.KI)
		case pipeline.KeyStr:
			b = putUvarint(b, uint64(sid))
		default:
			b = tw.putEnt(b, r.Aux)
		}
	}
	tw.buf = b
}

// putEnt appends an entity id field: 0 for none, else uvarint(zigzag(id −
// prev) + 1), where prev is the frame's previous non-nil entity id (0 at a
// frame start). A loop that repeats one access pattern over entities born
// one after another then repeats the same bytes, which DEFLATE matches.
func (tw *Writer) putEnt(b []byte, id int64) []byte {
	if id == 0 {
		return append(b, 0)
	}
	d := id - tw.prevEnt
	tw.prevEnt = id
	z := uint64(d<<1^d>>63) + 1
	if z == 0 && tw.err == nil {
		// Only a delta of exactly 2^63 (mod 2^64) wraps onto the nil
		// code, and the VM's ids reach 2^63 only in threads nested three
		// deep under main's 128th spawn. Refuse the record rather than
		// write an id that would replay as nil.
		tw.err = fmt.Errorf("trace: entity id %d is 2^63 from the previous id; the format cannot code the delta", id)
	}
	return putUvarint(b, z)
}

// flushFrame writes the current payload as one frame and resets the
// frame-local state (string table, clock base, entity-id base).
func (tw *Writer) flushFrame() {
	if tw.frameRecords == 0 {
		return
	}
	tw.emitFrame(tw.buf, tw.frameRecords)
	tw.buf = tw.buf[:0]
	clear(tw.strs)
	tw.prevClock = 0
	tw.prevEnt = 0
	tw.frameRecords = 0
}

// writeCheckpoint serializes the mirror heap as a checkpoint frame (zero
// records) and remembers its frame index so the reader can seed range
// replays from it.
func (tw *Writer) writeCheckpoint() {
	if tw.err != nil {
		return
	}
	tw.ckpts = append(tw.ckpts, len(tw.frames))
	tw.emitFrame(encodeCheckpoint(&tw.mirror), 0)
}

// deflaters recycles DEFLATE compressors across writers: each carries
// about 800 KiB of match tables, and a compressor Reset onto a new
// destination emits exactly the bytes a fresh flate.NewWriter would.
var deflaters = sync.Pool{New: func() any {
	fw, _ := flate.NewWriter(nil, flate.DefaultCompression)
	return fw
}}

// emitFrame compresses (if configured), hashes, and writes one frame.
func (tw *Writer) emitFrame(payload []byte, records uint64) {
	if tw.opts.Compress {
		if tw.zw == nil {
			tw.zw = deflaters.Get().(*flate.Writer)
		}
		tw.zbuf.Reset()
		tw.zw.Reset(&tw.zbuf)
		tw.zw.Write(payload)
		if err := tw.zw.Close(); err != nil && tw.err == nil {
			tw.err = err
			return
		}
		payload = tw.zbuf.Bytes()
	}
	tw.frames = append(tw.frames, frameInfo{off: tw.off, records: records})
	tw.leaves = append(tw.leaves, leafHash(payload))
	env := putUvarint(nil, uint64(len(payload)))
	env = le32(env, crc32.ChecksumIEEE(payload))
	tw.write(env)
	tw.write(payload)
}

// SetInstructions records the frontend's final executed-instruction count
// in the trace index, so offline replay can report it without a VM.
func (tw *Writer) SetInstructions(n uint64) { tw.instructions = n }

// MerkleRoot returns the trace's Merkle root. Valid only after Close (an
// aborted trace has no footer, so its root is never computed).
func (tw *Writer) MerkleRoot() Hash { return tw.root }

// Truncated reports whether the size limit stopped capture early.
func (tw *Writer) Truncated() bool { return tw.truncated }

// DroppedRecords returns how many records arrived after capture stopped.
func (tw *Writer) DroppedRecords() uint64 { return tw.dropped }

// Abort flushes the current frame and latches the writer closed WITHOUT
// writing the index or trailer. The result is a recognizable partial
// trace — a valid header followed by whole CRC-framed records, exactly
// the shape a crash mid-recording leaves behind — which readers accept
// through the truncated-trace recovery path. Use it when a cancelled run
// should keep its partial trace cheaply instead of finishing a file that
// claims completeness.
func (tw *Writer) Abort() error {
	if tw.closed {
		return tw.err
	}
	tw.finishFrames()
	return tw.err
}

// finishFrames latches the writer closed, flushes the last frame, and
// returns the compressor to the pool.
func (tw *Writer) finishFrames() {
	tw.closed = true
	tw.flushFrame()
	if tw.zw != nil {
		deflaters.Put(tw.zw)
		tw.zw = nil
	}
}

// Close flushes the last frame, writes the index frame and trailer, and
// returns the first write error, if any. The underlying writer is not
// closed.
func (tw *Writer) Close() error {
	if tw.closed {
		return tw.err
	}
	tw.finishFrames()
	idx := putUvarint(nil, uint64(len(tw.frames)))
	for _, f := range tw.frames {
		idx = putUvarint(idx, uint64(f.off))
		idx = putUvarint(idx, f.records)
	}
	idx = putUvarint(idx, tw.totalRecords)
	idx = putUvarint(idx, tw.finalClock)
	idx = putUvarint(idx, tw.instructions)
	// Format v2 index tail: checkpoint frame indices, one Merkle leaf per
	// frame, and the tree root.
	idx = putUvarint(idx, uint64(len(tw.ckpts)))
	for _, c := range tw.ckpts {
		idx = putUvarint(idx, uint64(c))
	}
	for _, l := range tw.leaves {
		idx = append(idx, l[:]...)
	}
	tw.root = merkleRoot(tw.leaves)
	idx = append(idx, tw.root[:]...)
	indexOff := tw.off
	env := putUvarint(nil, uint64(len(idx)))
	env = le32(env, crc32.ChecksumIEEE(idx))
	tw.write(env)
	tw.write(idx)
	trailer := le64(nil, uint64(indexOff))
	trailer = append(trailer, TrailerMagic...)
	tw.write(trailer)
	return tw.err
}

var _ pipeline.RecordTap = (*Writer)(nil)
var _ events.Listener = (*Writer)(nil)

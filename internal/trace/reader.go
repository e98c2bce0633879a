package trace

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"

	"algoprof/internal/events"
	"algoprof/internal/events/pipeline"
)

// Stats summarizes a trace file from its header and index, without
// decoding the event stream.
type Stats struct {
	Version      uint32
	Compressed   bool
	Frames       int
	Records      uint64
	FinalClock   uint64
	Instructions uint64
	// Truncated marks a trace opened through the recovery path: the file
	// has no (or an unreachable) index/trailer — a crashed or aborted
	// recording — and was reconstructed by scanning whole CRC-valid
	// frames. Records/FinalClock/Instructions are zero unless the index
	// itself survived; Replay stops silently at the damage point.
	Truncated bool
}

// Reader decodes one trace file. Open validates the header, trailer, and
// index eagerly; Replay then streams the records through a dispatch
// function in recorded order.
type Reader struct {
	data []byte // full file contents
	// ix is the trace's footer, as OpenIndex reads it. A trace recovered
	// without its index has only the frames the recovery scan found:
	// Frames, FrameOff and DataEnd, besides the header's fields.
	ix        Index
	truncated bool // opened through the recovery path
}

// Open reads and validates a trace file.
func Open(path string) (*Reader, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, &IOError{Op: "read", Off: 0, Err: err}
	}
	return NewReader(data)
}

// NewReader validates an in-memory trace image. A structurally complete
// trace (header, index, trailer) opens strictly; a file with a valid
// header but a missing or unreachable index/trailer — the footprint of a
// crashed or aborted recording — falls back to frame-scan recovery, and
// the result is marked Stats().Truncated. Only a file whose header is
// itself invalid is refused.
func NewReader(data []byte) (*Reader, error) {
	ix, err := readIndex(bytes.NewReader(data), int64(len(data)))
	if err == nil {
		return &Reader{data: data, ix: *ix}, nil
	}
	if rec, rerr := recoverReader(data); rerr == nil {
		return rec, nil
	}
	return nil, err
}

// checkHeader validates the fixed-size file header and returns the format
// version and flags. Every version from v1 to the current one is accepted;
// v1 traces replay sequentially but expose no checkpoints or Merkle footer.
func checkHeader(data []byte) (uint32, uint32, error) {
	if len(data) < headerSize {
		return 0, 0, corruptf("file too short (%d bytes)", len(data))
	}
	if string(data[:8]) != Magic {
		return 0, 0, corruptf("bad magic")
	}
	version := binary.LittleEndian.Uint32(data[8:12])
	if version < VersionV1 || version > Version {
		return 0, 0, corruptf("unsupported version %d (want %d to %d)", version, VersionV1, Version)
	}
	return version, binary.LittleEndian.Uint32(data[12:16]), nil
}

// recoverReader reconstructs a Reader from a trace without a usable
// index/trailer by scanning whole frames from the header forward: each
// frame is accepted only if its envelope parses and its CRC verifies, so
// the scan stops exactly at the torn tail a crash left behind. If the last
// scanned frame turns out to be the index (a complete file missing only
// its trailer), the index is restored; otherwise the frame list itself is
// the recovered extent and the stream totals are unknown.
func recoverReader(data []byte) (*Reader, error) {
	version, flags, err := checkHeader(data)
	if err != nil {
		return nil, err
	}
	var offs []int64
	off := int64(headerSize)
	for off < int64(len(data)) {
		// Envelope scan only (a nil inflater skips inflation): CRC
		// validity is what certifies the frame boundary.
		_, next, err := readFrame(data, off, nil)
		if err != nil {
			break
		}
		offs = append(offs, off)
		off = next
	}
	r := &Reader{data: data, truncated: true, ix: Index{
		Version:    version,
		Compressed: flags&FlagCompress != 0,
		Frames:     len(offs),
		FrameOff:   offs,
		DataEnd:    off,
		FileSize:   int64(len(data)),
	}}
	if n := len(offs); n > 0 {
		// A trace that died between index and trailer: the last frame
		// parses as an index consistent with the frames before it.
		if idx, _, err := readFrame(data, offs[n-1], nil); err == nil {
			probe := r.ix
			probe.DataEnd = offs[n-1]
			if probe.parse(idx) == nil && slices.Equal(probe.FrameOff, offs[:n-1]) {
				r.ix = probe
			}
		}
	}
	return r, nil
}

// frameErr stamps the containing frame's file offset onto an in-frame
// corruption error that lacks one, so callers learn where the file went
// bad, not just where within a decoded payload.
func frameErr(off int64, err error) error {
	var ce *CorruptError
	if errors.As(err, &ce) && ce.Off < 0 {
		ce.Off = off
	}
	return err
}

// Stats returns the trace summary from the index.
func (r *Reader) Stats() Stats {
	return Stats{
		Version:      r.ix.Version,
		Compressed:   r.ix.Compressed,
		Frames:       r.ix.Frames,
		Records:      r.ix.Records,
		FinalClock:   r.ix.FinalClock,
		Instructions: r.ix.Instructions,
		Truncated:    r.truncated,
	}
}

// Index returns the trace's footer. Unless its index frame survived, a
// recovered trace's footer lists only the frames the recovery scan found
// and carries no Merkle root. The slices are the reader's own; callers
// must not modify them.
func (r *Reader) Index() *Index { return &r.ix }

// NumFrames returns how many frames the trace holds (data and checkpoint
// frames both count).
func (r *Reader) NumFrames() int { return r.ix.Frames }

// Checkpoints returns the frame indices of the trace's checkpoint frames,
// ascending. Only v2 and v3 traces written before the writer stopped
// emitting them list any; replay skips them.
func (r *Reader) Checkpoints() []int {
	return append([]int(nil), r.ix.Checkpoints...)
}

// readFrame decodes the frame envelope at off: payload length, CRC check,
// and, when z is non-nil, decompression into z's buffer. It returns the
// payload and the offset just past the frame.
func readFrame(data []byte, off int64, z *inflater) ([]byte, int64, error) {
	if off < 0 || off >= int64(len(data)) {
		return nil, off, corruptAt(off, "frame offset out of range")
	}
	plen, n := binary.Uvarint(data[off:])
	if n <= 0 || plen > maxFramePayload {
		return nil, off, corruptAt(off, "bad frame length")
	}
	pos := off + int64(n)
	if pos+4 > int64(len(data)) {
		return nil, off, corruptAt(off, "truncated frame header")
	}
	sum := binary.LittleEndian.Uint32(data[pos:])
	pos += 4
	if pos+int64(plen) > int64(len(data)) {
		return nil, off, corruptAt(off, "truncated frame payload")
	}
	payload := data[pos : pos+int64(plen)]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, off, corruptAt(off, "frame CRC mismatch")
	}
	end := pos + int64(plen)
	if z != nil {
		raw, err := z.inflate(payload)
		if err != nil {
			return nil, off, corruptAt(off, "frame inflate: %v", err)
		}
		if len(raw) > maxFramePayload {
			return nil, off, corruptAt(off, "inflated frame exceeds limit")
		}
		payload = raw
	}
	return payload, end, nil
}

// inflater decompresses frame payloads through one flate reader, Reset
// onto each payload, into one buffer reused from frame to frame. A payload
// it returns is valid until its next inflate.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser // a flate.Resetter
	lim io.LimitedReader
	out bytes.Buffer
}

// inflaters recycles inflaters across replays: each carries a 32 KiB
// window, its Huffman tables and an output buffer the size of a frame.
var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// inflate decompresses one payload. It stops after maxFramePayload+1
// bytes, so the caller can refuse an oversized frame.
func (z *inflater) inflate(payload []byte) ([]byte, error) {
	z.src.Reset(payload)
	if z.fr == nil {
		z.fr = flate.NewReader(&z.src)
	} else if err := z.fr.(flate.Resetter).Reset(&z.src, nil); err != nil {
		return nil, err
	}
	z.lim = io.LimitedReader{R: z.fr, N: maxFramePayload + 1}
	z.out.Reset()
	if _, err := z.out.ReadFrom(&z.lim); err != nil {
		return nil, err
	}
	return z.out.Bytes(), nil
}

// frameDecoder is the decode state one replay reuses from frame to frame:
// the inflater of a compressed trace, the frame's string table, and the
// record every event is decoded into. Strings are copied out of the
// payload, so no decoded record aliases the reused buffers.
type frameDecoder struct {
	z    *inflater
	strs []string
	rec  pipeline.Record
	// delta marks a v3 trace, whose entity ids are deltas from prevEnt,
	// the frame's previous non-nil entity id; earlier versions store
	// them absolute.
	delta   bool
	prevEnt int64
}

// newDecoder returns a decoder for r's frames, holding a pooled inflater
// when the trace is compressed. Return it with release.
func (r *Reader) newDecoder() *frameDecoder {
	d := &frameDecoder{delta: r.ix.Version >= Version}
	if r.ix.Compressed {
		d.z = inflaters.Get().(*inflater)
	}
	return d
}

func (d *frameDecoder) release() {
	if d.z != nil {
		d.z.src.Reset(nil) // do not keep the trace image alive in the pool
		inflaters.Put(d.z)
		d.z = nil
	}
}

// Replay decodes every data frame in order and hands each reconstructed
// record to dispatch — typically the Record method of a replayed
// thread's profiling session. Every heap mutation is applied to
// the shadow heap before its record is dispatched, so a listener
// processing record k observes exactly the heap state the live listener
// saw at record k. As with a pipeline.RecordTap,
// the record is valid only for the duration of the call: the reader
// decodes the next event into it.
func (r *Reader) Replay(dispatch func(*pipeline.Record)) error {
	return r.ReplayContext(context.Background(), dispatch)
}

// ReplayContext is Replay with cooperative cancellation: ctx is checked
// between frames, so a deadline or cancel stops a long replay within one
// frame's worth of work. On a recovered (Stats().Truncated) trace, decode
// damage ends the replay silently instead of failing it: frames are
// dispatched atomically — a frame that does not decode in full is not
// dispatched at all — so listeners always observe a whole-frame prefix of
// the recorded stream.
func (r *Reader) ReplayContext(ctx context.Context, dispatch func(*pipeline.Record)) error {
	var heap events.Table[*shadowEntity]
	d := r.newDecoder()
	defer d.release()
	off := int64(headerSize)
	for off < r.ix.DataEnd {
		if err := ctx.Err(); err != nil {
			return err
		}
		payload, next, err := readFrame(r.data, off, d.z)
		if err != nil {
			if r.truncated {
				return nil
			}
			return err
		}
		if len(payload) > 0 && payload[0] == tagCheckpoint {
			// Checkpoint frames carry heap snapshots, not events; replay
			// rebuilds the heap itself, so they are skipped whole.
			off = next
			continue
		}
		if r.truncated {
			if d.replayAtomic(payload, &heap, dispatch) != nil {
				return nil
			}
		} else if err := d.replay(payload, &heap, dispatch); err != nil {
			return frameErr(off, err)
		}
		off = next
	}
	return nil
}

// replayAtomic decodes a whole frame before dispatching any of it.
// The shadow heap still mutates during the failed decode of a torn frame,
// but no record of that frame reaches the listeners — and the caller stops
// the replay there, so the inconsistency is never observed.
func (d *frameDecoder) replayAtomic(b []byte, heap *events.Table[*shadowEntity], dispatch func(*pipeline.Record)) error {
	var recs []pipeline.Record
	if err := d.replay(b, heap, func(r *pipeline.Record) {
		recs = append(recs, *r)
	}); err != nil {
		return err
	}
	for i := range recs {
		dispatch(&recs[i])
	}
	return nil
}

// replay decodes one frame payload, binding each record against the
// shadow heap and dispatching it in stream order. The string table, clock
// base and entity-id base are frame-local, so every frame decodes
// independently of the frames before it; only the heap carries over.
func (d *frameDecoder) replay(b []byte, heap *events.Table[*shadowEntity], dispatch func(*pipeline.Record)) error {
	d.strs = d.strs[:0]
	d.prevEnt = 0
	var clock uint64
	pos := 0
	for pos < len(b) {
		tag, pos2, err := readByte(b, pos)
		if err != nil {
			return err
		}
		pos = pos2
		if tag == tagStrDef {
			n, pos2, err := readUint(b, pos, maxFramePayload, "string length")
			if err != nil {
				return err
			}
			pos = pos2
			if pos+n > len(b) {
				return corruptf("truncated string at %d", pos)
			}
			d.strs = append(d.strs, string(b[pos:pos+n]))
			pos += n
			continue
		}
		op := pipeline.Op(tag)
		if op == pipeline.OpNone || op > pipeline.OpJrnlStore {
			return corruptf("unknown event tag %#x at %d", tag, pos-1)
		}
		delta, pos2, err := readUvarint(b, pos)
		if err != nil {
			return err
		}
		pos = pos2
		clock += delta
		d.rec = pipeline.Record{Op: op, Clock: clock}
		if pos, err = d.parseBody(b, pos); err != nil {
			return err
		}
		if err := bindBody(heap, &d.rec); err != nil {
			return err
		}
		dispatch(&d.rec)
	}
	return nil
}

// entID decodes one entity id field: a v3 delta (see Writer.putEnt) or,
// in earlier versions, the absolute id.
func (d *frameDecoder) entID(v uint64) int64 {
	if !d.delta || v == 0 {
		return int64(v)
	}
	v--
	d.prevEnt += int64(v>>1) ^ -int64(v&1)
	return d.prevEnt
}

// parseBody reads the op-specific fields of one event into d.rec. It
// touches no heap state; bindBody then resolves the entity ids.
func (d *frameDecoder) parseBody(b []byte, pos int) (int, error) {
	rec, strs := &d.rec, d.strs
	var err error
	readID := func() {
		var v int
		if err == nil {
			v, pos, err = readUint(b, pos, 1<<31, "id")
			rec.ID = int32(v)
		}
	}
	readEnt := func(dst *int64) {
		if err != nil {
			return
		}
		var v uint64
		if v, pos, err = readUvarint(b, pos); err != nil {
			return
		}
		*dst = d.entID(v)
	}
	switch rec.Op {
	case pipeline.OpLoopEntry, pipeline.OpLoopBack, pipeline.OpLoopExit,
		pipeline.OpMethodEntry, pipeline.OpMethodExit:
		readID()
	case pipeline.OpFieldGet:
		readID()
		readEnt(&rec.Ent)
	case pipeline.OpFieldPut:
		readID()
		readEnt(&rec.Ent)
		readEnt(&rec.Aux)
	case pipeline.OpArrayLoad:
		readEnt(&rec.Ent)
	case pipeline.OpArrayStore:
		readEnt(&rec.Ent)
		readEnt(&rec.Aux)
	case pipeline.OpAlloc:
		readID()
		readEnt(&rec.Ent)
	case pipeline.OpInstr:
		// Ent holds a pc, absolute in every version.
		readID()
		if err == nil {
			var pc uint64
			pc, pos, err = readUvarint(b, pos)
			rec.Ent = int64(pc)
		}
	case pipeline.OpInputRead, pipeline.OpOutputWrite:
		// No fields.
	case pipeline.OpJrnlAlloc:
		readEnt(&rec.Ent)
		if err != nil {
			return pos, err
		}
		var classID int64
		if classID, pos, err = readVarint(b, pos); err != nil {
			return pos, err
		}
		rec.ID = int32(classID)
		var capacity int
		if capacity, pos, err = readUint(b, pos, maxCapacity+1, "capacity"); err != nil {
			return pos, err
		}
		rec.Aux = int64(capacity)
		if rec.Kx, pos, err = readByte(b, pos); err != nil {
			return pos, err
		}
		if rec.Kx > uint8(events.ElemModeVal) {
			return pos, corruptf("bad element mode %d", rec.Kx)
		}
		var sid int
		if sid, pos, err = readUint(b, pos, uint64(len(strs)), "string id"); err != nil {
			return pos, err
		}
		rec.KS = strs[sid]
	case pipeline.OpJrnlStore:
		readEnt(&rec.Ent)
		readID()
		if err == nil {
			rec.Kx, pos, err = readByte(b, pos)
		}
		if err != nil {
			return pos, err
		}
		switch rec.Kx {
		case pipeline.KeyInt:
			if rec.KI, pos, err = readVarint(b, pos); err != nil {
				return pos, err
			}
		case pipeline.KeyStr:
			var sid int
			if sid, pos, err = readUint(b, pos, uint64(len(strs)), "string id"); err != nil {
				return pos, err
			}
			rec.KS = strs[sid]
		case pipeline.KeyNone:
			readEnt(&rec.Aux)
		default:
			return pos, corruptf("bad store key kind %d", rec.Kx)
		}
	}
	return pos, err
}

// bindBody resolves a parsed record's entity ids against (and mutates) the
// shadow heap, filling E1/E2. Every heap mutation is applied before its
// record is dispatched: a listener processing record k observes exactly
// the heap state the live listener saw there.
func bindBody(heap *events.Table[*shadowEntity], rec *pipeline.Record) error {
	switch rec.Op {
	case pipeline.OpFieldGet, pipeline.OpArrayLoad, pipeline.OpAlloc:
		rec.E1 = ent(get(heap, rec.Ent))
	case pipeline.OpFieldPut:
		obj := get(heap, rec.Ent)
		tgt := get(heap, rec.Aux)
		if obj != nil {
			obj.setLink(int(rec.ID), tgt)
		}
		rec.E1, rec.E2 = ent(obj), ent(tgt)
	case pipeline.OpArrayStore:
		rec.E1 = ent(get(heap, rec.Ent))
		rec.E2 = ent(get(heap, rec.Aux))
	case pipeline.OpJrnlAlloc:
		e, err := alloc(heap, rec.Ent, int(rec.ID), int(rec.Aux), events.ElemMode(rec.Kx), rec.KS)
		if err != nil {
			return err
		}
		rec.E1 = e
	case pipeline.OpJrnlStore:
		arr := get(heap, rec.Ent)
		slot := shadowSlot{}
		switch rec.Kx {
		case pipeline.KeyInt:
			slot = shadowSlot{kind: slotInt, i: rec.KI}
		case pipeline.KeyStr:
			slot = shadowSlot{kind: slotStr, s: rec.KS}
		default:
			tgt := get(heap, rec.Aux)
			if tgt != nil {
				slot = shadowSlot{kind: slotRef, ref: tgt}
			}
			rec.E2 = ent(tgt)
		}
		if arr != nil {
			if err := arr.setSlot(int(rec.ID), slot); err != nil {
				return err
			}
		}
		rec.E1 = ent(arr)
	}
	return nil
}

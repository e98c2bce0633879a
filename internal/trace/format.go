// Package trace persists the pipeline's event stream to disk and replays
// it offline. A Writer rides a profiled thread's session as a raw record
// tap and streams every record — including the heap-journal records
// regular listeners never see — into self-delimiting, CRC-protected,
// optionally compressed frames. A Reader decodes a trace and hands the
// records back to a session, reconstructing the heap as a shadow of
// interned entities, so the algorithmic profiler, CCT, and bbprof backends
// run on a recorded stream and produce byte-identical reports to the live
// run.
//
// The on-disk layout is specified in docs/TRACE.md. In short:
//
//	header  = magic "ALGTRACE" + u32 version + u32 flags
//	frames  = uvarint payloadLen + u32 CRC32(payload) + payload
//	payload = tagged events (tag 0xF0 interns the next string id);
//	          entity ids are deltas from the frame's previous one (v3)
//	index   = one uncompressed frame of frame offsets + totals
//	trailer = u64 index offset + magic "ALGTRIDX"
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"

	"algoprof/internal/faultinject"
)

// File layout constants.
const (
	// Magic opens every trace file.
	Magic = "ALGTRACE"
	// TrailerMagic closes every complete trace file.
	TrailerMagic = "ALGTRIDX"
	// Version is the current format version, the one writers emit: v2's
	// layout (Merkle footer, checkpoint list) with every entity id coded as
	// a delta from the frame's previous one (see Writer.putEnt) instead of
	// absolute. Readers accept every earlier version too.
	Version = 3
	// VersionV1 is the first format: absolute entity ids, no checkpoint
	// frames, no Merkle section in the index. v1 traces replay
	// sequentially and diff via the slow path.
	VersionV1 = 1

	headerSize  = 8 + 4 + 4
	trailerSize = 8 + 8
)

// Header flag bits.
const (
	// FlagCompress marks data-frame payloads as DEFLATE-compressed. The
	// index frame is always stored raw.
	FlagCompress uint32 = 1 << 0
)

// tagStrDef interns a string: the bytes that follow define the next
// sequential string id of the current frame. Event tags are the raw
// pipeline.Op values, which stay well below 0xF0.
const tagStrDef = 0xF0

// tagCheckpoint opens a checkpoint frame, a legacy frame kind: v2 and v3
// writers once put a snapshot of the shadow heap in one every 16 data
// frames, for a range replay that no longer exists. Checkpoint frames
// carry no events; readers skip them and writers no longer emit them.
const tagCheckpoint = 0xF1

// Decoder bounds. Real traces stay far under these; they exist so a
// corrupted or adversarial file fails with an error instead of exhausting
// memory.
const (
	// maxFramePayload bounds one frame's decoded payload size.
	maxFramePayload = 1 << 24
	// maxCapacity bounds a journaled entity capacity.
	maxCapacity = 1 << 20
)

// ErrCorrupt wraps every decoding failure, so callers can distinguish a
// damaged trace from an I/O error.
var ErrCorrupt = errors.New("trace: corrupt")

// CorruptError is a decoding failure. It matches errors.Is(err, ErrCorrupt),
// classifies as faultinject.Corruption, and carries the file offset of the
// damaged frame when the decoder knows it (-1 otherwise) so audits can
// report where a trace went bad.
type CorruptError struct {
	// Off is the file offset of the frame found damaged, -1 if unknown.
	Off int64
	// Msg describes the damage.
	Msg string
}

// Error implements error.
func (e *CorruptError) Error() string {
	if e.Off >= 0 {
		return fmt.Sprintf("trace: corrupt: %s (frame offset %d)", e.Msg, e.Off)
	}
	return "trace: corrupt: " + e.Msg
}

// Is keeps errors.Is(err, ErrCorrupt) working for pre-existing callers.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// FaultClass implements faultinject.Classifier.
func (e *CorruptError) FaultClass() faultinject.FaultClass { return faultinject.Corruption }

func corruptf(format string, args ...any) error {
	return &CorruptError{Off: -1, Msg: fmt.Sprintf(format, args...)}
}

// corruptAt is corruptf with the file offset of the damaged frame.
func corruptAt(off int64, format string, args ...any) error {
	return &CorruptError{Off: off, Msg: fmt.Sprintf(format, args...)}
}

// IOError wraps a raw I/O failure from the trace writer or reader with the
// operation and the file offset at which it struck, so callers can
// errors.Is/As through it against the fault taxonomy (the underlying error
// keeps its own class: an injected ENOSPC stays Resource, a short write
// stays Transient).
type IOError struct {
	// Op is the failed operation ("write", "read", "sync", ...).
	Op string
	// Off is the file offset of the failed operation.
	Off int64
	// Err is the underlying error.
	Err error
}

// Error implements error.
func (e *IOError) Error() string {
	return fmt.Sprintf("trace: %s at offset %d: %s", e.Op, e.Off, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *IOError) Unwrap() error { return e.Err }

// ---------------------------------------------------------------------------
// Varint helpers over byte slices. All reads are bounds-checked and return
// an error instead of panicking, so the decoder survives arbitrary input
// (the fuzz target's contract).

func putUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func putVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

func readUvarint(b []byte, pos int) (uint64, int, error) {
	v, n := binary.Uvarint(b[pos:])
	if n <= 0 {
		return 0, pos, corruptf("bad uvarint at %d", pos)
	}
	return v, pos + n, nil
}

func readVarint(b []byte, pos int) (int64, int, error) {
	v, n := binary.Varint(b[pos:])
	if n <= 0 {
		return 0, pos, corruptf("bad varint at %d", pos)
	}
	return v, pos + n, nil
}

func readByte(b []byte, pos int) (byte, int, error) {
	if pos >= len(b) {
		return 0, pos, corruptf("unexpected end at %d", pos)
	}
	return b[pos], pos + 1, nil
}

// readUint reads a uvarint and checks it fits a non-negative int below
// limit.
func readUint(b []byte, pos int, limit uint64, what string) (int, int, error) {
	v, pos, err := readUvarint(b, pos)
	if err != nil {
		return 0, pos, err
	}
	if v >= limit {
		return 0, pos, corruptf("%s %d out of range", what, v)
	}
	return int(v), pos, nil
}

// capFor bounds the preallocation for n items about to be decoded from
// b[pos:], each encoded in at least minBytes bytes: a count is untrusted
// until its items have been read, so a forged one may cost no more memory
// than the payload that carries it.
func capFor(n int, b []byte, pos, minBytes int) int {
	return min(n, (len(b)-pos)/minBytes)
}

package trace

import (
	"encoding/binary"
	"errors"
	"io"
	"os"
)

// Index is a trace's footer: its metadata, loaded without reading the data
// frames. OpenIndex reads only the fixed-size header, the trailer, and the
// index frame the trailer points at; a Reader keeps the same Index. From
// format v2 on the footer holds every frame's Merkle leaf and the tree
// root, so DiffTraceFiles compares two traces by their leaf lists and
// VerifyFileRange reads no frame outside the range it checks.
type Index struct {
	// Version and Compressed mirror Stats.
	Version    uint32
	Compressed bool
	// Frames counts all frames (data and checkpoint).
	Frames int
	// FrameOff and FrameRecords are per-frame file offsets and record
	// counts (checkpoint frames hold zero records).
	FrameOff     []int64
	FrameRecords []uint64
	// Records, FinalClock, Instructions are the stream totals.
	Records      uint64
	FinalClock   uint64
	Instructions uint64
	// Checkpoints are the legacy checkpoint frame indices, ascending;
	// only traces from writers that still emitted them list any.
	Checkpoints []int
	// Leaves and Root are the Merkle footer (HasMerkle reports presence —
	// v1 traces have none).
	Leaves    []Hash
	Root      Hash
	HasMerkle bool
	// DataEnd is the file offset where data frames end (the index frame
	// starts there); FileSize is the whole file; BytesRead counts what
	// OpenIndex actually read to build this Index.
	DataEnd   int64
	FileSize  int64
	BytesRead int64
}

// OpenIndex loads a trace's Index by reading only its header, trailer, and
// index frame — O(frames) metadata, never the data frames themselves. A
// truncated trace (no trailer) has no reachable index and fails here; use
// NewReader's recovery path for those.
func OpenIndex(path string) (*Index, error) {
	f, size, err := openSized(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readIndex(f, size)
}

// openSized opens a trace file and returns it with its size.
func openSized(path string) (*os.File, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, &IOError{Op: "open", Off: 0, Err: err}
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, &IOError{Op: "stat", Off: 0, Err: err}
	}
	return f, st.Size(), nil
}

// readIndex reads the Index of the size-byte trace image ra.
func readIndex(ra io.ReaderAt, size int64) (*Index, error) {
	if size < headerSize+trailerSize {
		return nil, corruptf("file too short (%d bytes)", size)
	}
	hdr := make([]byte, headerSize)
	if _, err := ra.ReadAt(hdr, 0); err != nil {
		return nil, &IOError{Op: "read", Off: 0, Err: err}
	}
	version, flags, err := checkHeader(hdr)
	if err != nil {
		return nil, err
	}
	trailer := make([]byte, trailerSize)
	if _, err := ra.ReadAt(trailer, size-trailerSize); err != nil {
		return nil, &IOError{Op: "read", Off: size - trailerSize, Err: err}
	}
	if string(trailer[8:]) != TrailerMagic {
		return nil, corruptf("bad trailer magic")
	}
	indexOff := binary.LittleEndian.Uint64(trailer[:8])
	if indexOff < headerSize || indexOff > uint64(size-trailerSize) {
		return nil, corruptf("index offset %d out of range", indexOff)
	}
	ix := &Index{
		Version:    version,
		Compressed: flags&FlagCompress != 0,
		DataEnd:    int64(indexOff),
		FileSize:   size,
	}
	region := make([]byte, size-trailerSize-ix.DataEnd)
	if _, err := ra.ReadAt(region, ix.DataEnd); err != nil {
		return nil, &IOError{Op: "read", Off: ix.DataEnd, Err: err}
	}
	ix.BytesRead = int64(headerSize + trailerSize + len(region))
	payload, _, err := readFrame(region, 0, nil)
	if err != nil {
		return nil, rebase(err, ix.DataEnd)
	}
	if err := ix.parse(payload); err != nil {
		return nil, err
	}
	return ix, nil
}

// rebase turns the frame offset of a corruption found in a buffer read
// from file offset base into a file offset.
func rebase(err error, base int64) error {
	var ce *CorruptError
	if errors.As(err, &ce) && ce.Off >= 0 {
		ce.Off += base
	}
	return err
}

// parse decodes an index frame payload into ix, whose Version selects
// whether the v2 tail (checkpoints + Merkle section) is required and whose
// DataEnd bounds the frame offsets.
func (ix *Index) parse(idx []byte) error {
	nFrames, pos, err := readUint(idx, 0, 1<<32, "frame count")
	if err != nil {
		return err
	}
	// A frame entry is two uvarints: its offset and its record count.
	ix.FrameOff = make([]int64, 0, capFor(nFrames, idx, pos, 2))
	ix.FrameRecords = make([]uint64, 0, capFor(nFrames, idx, pos, 2))
	for i := 0; i < nFrames; i++ {
		var off uint64
		off, pos, err = readUvarint(idx, pos)
		if err != nil {
			return err
		}
		if off < headerSize || int64(off) >= ix.DataEnd {
			return corruptf("frame %d offset %d out of range", i, off)
		}
		ix.FrameOff = append(ix.FrameOff, int64(off))
		var recs uint64
		if recs, pos, err = readUvarint(idx, pos); err != nil {
			return err
		}
		ix.FrameRecords = append(ix.FrameRecords, recs)
	}
	ix.Frames = nFrames
	if ix.Records, pos, err = readUvarint(idx, pos); err != nil {
		return err
	}
	if ix.FinalClock, pos, err = readUvarint(idx, pos); err != nil {
		return err
	}
	if ix.Instructions, pos, err = readUvarint(idx, pos); err != nil {
		return err
	}
	if ix.Version == VersionV1 {
		// v1 indexes end here; anything further would belong to a format
		// this reader predates, so it is ignored, as the v1 reader did.
		return nil
	}
	// Format v2 tail: checkpoint frame indices, one Merkle leaf per frame,
	// and the tree root. The tail is mandatory from v2 on, and strictly
	// sized.
	nCkpts, pos, err := readUint(idx, pos, uint64(nFrames)+1, "checkpoint count")
	if err != nil {
		return err
	}
	ix.Checkpoints = make([]int, 0, capFor(nCkpts, idx, pos, 1))
	for i := 0; i < nCkpts; i++ {
		var c int
		if c, pos, err = readUint(idx, pos, uint64(nFrames), "checkpoint frame index"); err != nil {
			return err
		}
		if i > 0 && c <= ix.Checkpoints[i-1] {
			return corruptf("checkpoint frame indices not ascending (%d after %d)", c, ix.Checkpoints[i-1])
		}
		ix.Checkpoints = append(ix.Checkpoints, c)
	}
	// The size check bounds the leaves by the payload before they are
	// allocated.
	need := (nFrames + 1) * HashSize
	if len(idx)-pos != need {
		return corruptf("merkle section is %d bytes, want %d", len(idx)-pos, need)
	}
	ix.Leaves = make([]Hash, nFrames)
	for i := range ix.Leaves {
		copy(ix.Leaves[i][:], idx[pos:])
		pos += HashSize
	}
	copy(ix.Root[:], idx[pos:])
	ix.HasMerkle = true
	return nil
}

// RangeCheck reports a successful VerifyFileRange: which frames were
// checked, how many records they hold, and how many file bytes the check
// actually read (footer + the range itself — never the whole file).
type RangeCheck struct {
	Lo, Hi    int
	Frames    int
	Records   uint64
	BytesRead int64
	FileSize  int64
	Root      Hash
}

// VerifyFileRange checks that frames [lo, hi) of the trace at path are
// intact and belong to the trace's Merkle root, reading only the footer and
// the frame range itself. It re-hashes the range's stored (post-
// compression) frame bytes, so it never inflates payloads, puts those
// hashes in place of the footer's leaves for the range, and recomputes the
// root over all leaves. Any damage — a flipped payload byte, a torn frame,
// a tampered out-of-range footer leaf or root — fails with a typed
// *CorruptError. The footer's in-range leaves are not read: the frames
// themselves stand for them.
func VerifyFileRange(path string, lo, hi int) (*RangeCheck, error) {
	f, size, err := openSized(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return verifyRange(f, size, lo, hi)
}

// verifyRange is VerifyFileRange over the size-byte trace image ra.
func verifyRange(ra io.ReaderAt, size int64, lo, hi int) (*RangeCheck, error) {
	ix, err := readIndex(ra, size)
	if err != nil {
		return nil, err
	}
	if !ix.HasMerkle {
		return nil, corruptf("trace has no merkle footer (format v%d); range verification needs v%d", ix.Version, Version)
	}
	if lo < 0 || hi > ix.Frames || lo >= hi {
		return nil, corruptf("merkle range [%d,%d) out of bounds (0..%d)", lo, hi, ix.Frames)
	}
	base := ix.FrameOff[lo]
	end := ix.DataEnd
	if hi < ix.Frames {
		end = ix.FrameOff[hi]
	}
	if end <= base {
		return nil, corruptf("frame offsets not ascending at %d", lo)
	}
	region := make([]byte, end-base)
	if _, err := ra.ReadAt(region, base); err != nil {
		return nil, &IOError{Op: "read", Off: base, Err: err}
	}
	var records uint64
	for i := lo; i < hi; i++ {
		payload, next, err := readFrame(region, ix.FrameOff[i]-base, nil)
		if err != nil {
			return nil, rebase(err, base)
		}
		wantNext := end - base
		if i+1 < hi {
			wantNext = ix.FrameOff[i+1] - base
		}
		if next != wantNext {
			return nil, corruptAt(ix.FrameOff[i], "frame %d ends at %d, index says %d", i, base+next, base+wantNext)
		}
		ix.Leaves[i] = leafHash(payload)
		records += ix.FrameRecords[i]
	}
	if root := merkleRoot(ix.Leaves); root != ix.Root {
		return nil, corruptf("merkle root mismatch: frames [%d,%d) yield %s, footer says %s", lo, hi, root, ix.Root)
	}
	return &RangeCheck{
		Lo: lo, Hi: hi,
		Frames:    hi - lo,
		Records:   records,
		BytesRead: ix.BytesRead + int64(len(region)),
		FileSize:  ix.FileSize,
		Root:      ix.Root,
	}, nil
}

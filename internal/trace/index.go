package trace

import (
	"encoding/binary"
	"os"
)

// Index is a trace's metadata, loaded without reading the data frames:
// OpenIndex reads only the fixed-size header, the trailer, and the index
// frame the trailer points at. From format v2 on that includes every frame's
// Merkle leaf and the tree root, so range proofs and trace diffs work from
// the footer alone.
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
	// Checkpoints are the checkpoint frame indices, ascending (v2 on).
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
	f, err := os.Open(path)
	if err != nil {
		return nil, &IOError{Op: "open", Off: 0, Err: err}
	}
	defer f.Close()
	return readIndex(f)
}

// readIndex reads an Index from an open trace file.
func readIndex(f *os.File) (*Index, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, &IOError{Op: "stat", Off: 0, Err: err}
	}
	size := st.Size()
	if size < headerSize+trailerSize {
		return nil, corruptf("file too short (%d bytes)", size)
	}
	hdr := make([]byte, headerSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, &IOError{Op: "read", Off: 0, Err: err}
	}
	version, flags, err := checkHeader(hdr)
	if err != nil {
		return nil, err
	}
	trailer := make([]byte, trailerSize)
	if _, err := f.ReadAt(trailer, size-trailerSize); err != nil {
		return nil, &IOError{Op: "read", Off: size - trailerSize, Err: err}
	}
	if string(trailer[8:]) != TrailerMagic {
		return nil, corruptf("bad trailer magic")
	}
	indexOff := binary.LittleEndian.Uint64(trailer[:8])
	if indexOff < headerSize || indexOff > uint64(size-trailerSize) {
		return nil, corruptf("index offset %d out of range", indexOff)
	}
	region := make([]byte, size-trailerSize-int64(indexOff))
	if _, err := f.ReadAt(region, int64(indexOff)); err != nil {
		return nil, &IOError{Op: "read", Off: int64(indexOff), Err: err}
	}
	payload, _, err := readFrame(region, 0, nil)
	if err != nil {
		return nil, frameErr(int64(indexOff), err)
	}
	d, err := parseIndexData(payload, version, int64(indexOff))
	if err != nil {
		return nil, err
	}
	return &Index{
		Version:      version,
		Compressed:   flags&FlagCompress != 0,
		Frames:       len(d.frameOff),
		FrameOff:     d.frameOff,
		FrameRecords: d.frameRec,
		Records:      d.records,
		FinalClock:   d.finalClock,
		Instructions: d.instructions,
		Checkpoints:  d.ckpts,
		Leaves:       d.leaves,
		Root:         d.root,
		HasMerkle:    d.hasMerkle,
		DataEnd:      int64(indexOff),
		FileSize:     size,
		BytesRead:    int64(headerSize + trailerSize + len(region)),
	}, nil
}

// HasMerkle reports whether the trace carries a Merkle footer (format v2
// on).
func (r *Reader) HasMerkle() bool { return r.hasMerkle }

// MerkleRoot returns the trace's Merkle root from the footer; ok is false
// for v1 and recovered traces, which have none.
func (r *Reader) MerkleRoot() (root Hash, ok bool) { return r.root, r.hasMerkle }

// Leaves returns a copy of the per-frame Merkle leaf hashes (nil without a
// Merkle footer).
func (r *Reader) Leaves() []Hash {
	return append([]Hash(nil), r.leaves...)
}

// ProveRange builds a Merkle range proof for frames [lo, hi): together with
// those frames' leaf hashes it convinces VerifyRangeProof that they belong
// to this trace's root, without any other frame's bytes.
func (r *Reader) ProveRange(lo, hi int) (*RangeProof, error) {
	if !r.hasMerkle {
		return nil, corruptf("trace has no merkle footer (format v%d)", r.stats.Version)
	}
	if lo < 0 || hi > len(r.leaves) || lo >= hi {
		return nil, corruptf("merkle range [%d,%d) out of bounds (0..%d)", lo, hi, len(r.leaves))
	}
	return proveRange(buildLevels(r.leaves), lo, hi), nil
}

// RangeCheck reports a successful VerifyFileRange: which frames were
// proven, how many records they hold, and how many file bytes the check
// actually read (footer + the range itself — never the whole file).
type RangeCheck struct {
	Lo, Hi    int
	Frames    int
	Records   uint64
	BytesRead int64
	FileSize  int64
	Root      Hash
}

// VerifyFileRange proves that frames [lo, hi) of the trace at path are
// intact and belong to the trace's Merkle root, reading only the footer and
// the frame range itself. Any damage — a flipped payload byte, a torn
// frame, a tampered footer leaf or checkpoint — fails with a typed
// *CorruptError. The check hashes the stored (post-compression) frame
// bytes, so it never inflates payloads.
func VerifyFileRange(path string, lo, hi int) (*RangeCheck, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, &IOError{Op: "open", Off: 0, Err: err}
	}
	defer f.Close()
	ix, err := readIndex(f)
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
	if _, err := f.ReadAt(region, base); err != nil {
		return nil, &IOError{Op: "read", Off: base, Err: err}
	}
	leaves := make([]Hash, 0, hi-lo)
	var records uint64
	for i := lo; i < hi; i++ {
		off := ix.FrameOff[i] - base
		payload, next, err := readFrame(region, off, nil)
		if err != nil {
			return nil, frameErr(ix.FrameOff[i], err)
		}
		wantNext := end - base
		if i+1 < hi {
			wantNext = ix.FrameOff[i+1] - base
		}
		if next != wantNext {
			return nil, corruptAt(ix.FrameOff[i], "frame %d ends at %d, index says %d", i, base+next, base+wantNext)
		}
		leaves = append(leaves, leafHash(payload))
		records += ix.FrameRecords[i]
	}
	proof := proveRange(buildLevels(ix.Leaves), lo, hi)
	if err := VerifyRangeProof(ix.Root, lo, hi, leaves, proof); err != nil {
		return nil, err
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

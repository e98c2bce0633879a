package trace

import "os"

// TraceDiff reports how two trace files differ at the frame level, and what
// it cost to find out. With Merkle footers on both sides the differ reads
// only the two footers and compares their leaf lists — zero data-frame
// bytes read, whatever the two frame counts. A v1 trace on either side has
// no leaves, and the diff falls back to a full byte scan.
type TraceDiff struct {
	// OldFrames and NewFrames are the two traces' frame counts.
	OldFrames, NewFrames int
	// Identical is true when every frame matches (same count, same bytes).
	Identical bool
	// ChangedRanges are the differing frame ranges [lo, hi), ascending and
	// coalesced, in the common frame numbering; frames past the shorter
	// trace's end are appended as a final range when counts differ.
	ChangedRanges [][2]int
	// ChangedFrames counts frames inside ChangedRanges.
	ChangedFrames int
	// ChangedRecords counts the records those frames hold on the new side
	// (from the footer's per-frame record counts — no frame reads needed).
	ChangedRecords uint64
	// FullScan marks the byte-compare path (a v1 trace on either side).
	FullScan bool
	// BytesReadOld and BytesReadNew count file bytes actually read per side.
	BytesReadOld, BytesReadNew int64
}

// DiffTraceFiles compares the traces at oldPath and newPath frame by frame.
// When both carry Merkle footers it reads the two footers and nothing
// else: equal roots over equal frame counts mean identical traces, and
// otherwise the leaf lists are compared over the common frames. Truncated
// traces have no reachable footer and fail with the reader's typed errors.
func DiffTraceFiles(oldPath, newPath string) (*TraceDiff, error) {
	oldIx, newIx, d, err := openPair(oldPath, newPath)
	if err != nil {
		return nil, err
	}
	if !oldIx.HasMerkle || !newIx.HasMerkle {
		return d.fullScan(oldPath, newPath, oldIx, newIx)
	}
	d.BytesReadOld, d.BytesReadNew = oldIx.BytesRead, newIx.BytesRead
	if oldIx.Frames == newIx.Frames && oldIx.Root == newIx.Root {
		d.Identical = true
		return d, nil
	}
	return d, d.compare(oldIx, newIx, func(i int) (bool, error) { return oldIx.Leaves[i] == newIx.Leaves[i], nil })
}

// DiffTraceFilesFull forces the full byte-scan path — what every diff would
// cost without the Merkle footer — so benchmarks can price what the footer
// saves. Results are equivalent to DiffTraceFiles up to the cost fields.
func DiffTraceFilesFull(oldPath, newPath string) (*TraceDiff, error) {
	oldIx, newIx, d, err := openPair(oldPath, newPath)
	if err != nil {
		return nil, err
	}
	return d.fullScan(oldPath, newPath, oldIx, newIx)
}

// openPair reads both traces' footers and starts their diff.
func openPair(oldPath, newPath string) (oldIx, newIx *Index, d *TraceDiff, err error) {
	if oldIx, err = OpenIndex(oldPath); err != nil {
		return nil, nil, nil, err
	}
	if newIx, err = OpenIndex(newPath); err != nil {
		return nil, nil, nil, err
	}
	return oldIx, newIx, &TraceDiff{OldFrames: oldIx.Frames, NewFrames: newIx.Frames}, nil
}

// fullScan is the slow path: read both files and compare every common
// frame's stored bytes (envelope included — equal stored bytes is exactly
// the Merkle leaves' notion of equality). It runs for v1 traces, which
// have frame offsets in their index but no hashes.
func (d *TraceDiff) fullScan(oldPath, newPath string, oldIx, newIx *Index) (*TraceDiff, error) {
	oldData, err := os.ReadFile(oldPath)
	if err != nil {
		return nil, &IOError{Op: "read", Off: 0, Err: err}
	}
	newData, err := os.ReadFile(newPath)
	if err != nil {
		return nil, &IOError{Op: "read", Off: 0, Err: err}
	}
	d.FullScan = true
	d.BytesReadOld = int64(len(oldData))
	d.BytesReadNew = int64(len(newData))
	frameBytes := func(ix *Index, data []byte, i int) ([]byte, error) {
		lo := ix.FrameOff[i]
		hi := ix.DataEnd
		if i+1 < ix.Frames {
			hi = ix.FrameOff[i+1]
		}
		if lo < headerSize || hi > int64(len(data)) || lo >= hi {
			return nil, corruptAt(lo, "frame %d offsets out of range", i)
		}
		return data[lo:hi], nil
	}
	err = d.compare(oldIx, newIx, func(i int) (bool, error) {
		ob, err := frameBytes(oldIx, oldData, i)
		if err != nil {
			return false, err
		}
		nb, err := frameBytes(newIx, newData, i)
		if err != nil {
			return false, err
		}
		return string(ob) == string(nb), nil
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// compare marks every common frame i for which same(i) reports false as
// changed, then the frames past the shorter trace's end, and derives the
// summary counters from the changed ranges.
func (d *TraceDiff) compare(oldIx, newIx *Index, same func(i int) (bool, error)) error {
	common := min(oldIx.Frames, newIx.Frames)
	for i := 0; i < common; i++ {
		eq, err := same(i)
		if err != nil {
			return err
		}
		if !eq {
			d.appendChanged(i, i+1)
		}
	}
	if oldIx.Frames != newIx.Frames {
		d.appendChanged(common, max(oldIx.Frames, newIx.Frames))
	}
	d.Identical = len(d.ChangedRanges) == 0
	for _, rg := range d.ChangedRanges {
		d.ChangedFrames += rg[1] - rg[0]
		for f := rg[0]; f < rg[1] && f < len(newIx.FrameRecords); f++ {
			d.ChangedRecords += newIx.FrameRecords[f]
		}
	}
	return nil
}

// appendChanged records frames [lo, hi) as changed, coalescing with the
// previous range when adjacent (frames are compared in ascending order).
func (d *TraceDiff) appendChanged(lo, hi int) {
	if n := len(d.ChangedRanges); n > 0 && d.ChangedRanges[n-1][1] == lo {
		d.ChangedRanges[n-1][1] = hi
		return
	}
	d.ChangedRanges = append(d.ChangedRanges, [2]int{lo, hi})
}

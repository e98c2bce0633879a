package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"algoprof/internal/events/pipeline"
)

// TestMerkleRootPairing pins merkleRoot for 0 to 17 leaves against the
// pairing rule: each level pairs adjacent nodes, an odd last node is
// promoted unchanged, and the empty set's root is the zero hash. The
// reference builds the same tree top-down, splitting off the largest power
// of two below the leaf count.
func TestMerkleRootPairing(t *testing.T) {
	var ref func(l []Hash) Hash
	ref = func(l []Hash) Hash {
		if len(l) == 1 {
			return l[0]
		}
		k := 1
		for 2*k < len(l) {
			k *= 2
		}
		return nodeHash(ref(l[:k]), ref(l[k:]))
	}
	if got := merkleRoot(nil); got != (Hash{}) {
		t.Fatalf("empty root = %s, want the zero hash", got)
	}
	l := make([]Hash, 17)
	for i := range l {
		l[i] = leafHash([]byte{byte(i), 0x5a})
	}
	kept := append([]Hash(nil), l...)
	if got, want := merkleRoot(l[:3]), nodeHash(nodeHash(l[0], l[1]), l[2]); got != want {
		t.Fatalf("3 leaves: root %s, want %s (the third leaf promoted)", got, want)
	}
	if got, want := merkleRoot(l[:6]), nodeHash(nodeHash(nodeHash(l[0], l[1]), nodeHash(l[2], l[3])), nodeHash(l[4], l[5])); got != want {
		t.Fatalf("6 leaves: root %s, want %s (the third pair promoted)", got, want)
	}
	for n := 1; n <= 17; n++ {
		if got, want := merkleRoot(l[:n]), ref(l[:n]); got != want {
			t.Fatalf("%d leaves: root %s, want %s", n, got, want)
		}
	}
	if fmt.Sprint(l) != fmt.Sprint(kept) {
		t.Fatal("merkleRoot modified its leaves")
	}
}

// TestRangeCheckExhaustive checks every [lo, hi) of traces of 1 to 17
// frames: the intact range passes, and a payload byte flipped in the
// range's middle frame, its CRC fixed up so that only the recomputed root
// can catch it, fails typed.
func TestRangeCheckExhaustive(t *testing.T) {
	recs := manyRecords(17)
	for n := 1; n <= 17; n++ {
		// A 1-byte frame size cuts a frame after every record.
		data := buildTrace(t, WriterOptions{FrameSize: 1}, recs[:n])
		ix, err := readIndex(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		if ix.Frames != n {
			t.Fatalf("%d records wrote %d frames", n, ix.Frames)
		}
		for lo := 0; lo < n; lo++ {
			for hi := lo + 1; hi <= n; hi++ {
				if _, err := verifyRange(bytes.NewReader(data), int64(len(data)), lo, hi); err != nil {
					t.Fatalf("n=%d [%d,%d): intact range refused: %v", n, lo, hi, err)
				}
				mid := lo + (hi-lo-1)/2
				payload, _, err := readFrame(data, ix.FrameOff[mid], nil)
				if err != nil {
					t.Fatal(err)
				}
				flipped := append([]byte(nil), payload...)
				flipped[len(flipped)-1] ^= 0xFF
				bad := append([]byte(nil), data...)
				reframe(t, bad, ix.FrameOff[mid], flipped)
				if _, err := verifyRange(bytes.NewReader(bad), int64(len(bad)), lo, hi); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("n=%d [%d,%d): damaged frame %d accepted (err=%v)", n, lo, hi, mid, err)
				}
			}
		}
	}
}

// writeTempTrace writes a built trace to a file for the file-based APIs.
func writeTempTrace(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	return path
}

// reframe replaces the payload of the frame at off with p, recomputing the
// CRC. The new payload must encode to the same total frame size, so file
// offsets elsewhere stay valid.
func reframe(t *testing.T, data []byte, off int64, p []byte) {
	t.Helper()
	plen, n := binary.Uvarint(data[off:])
	if n <= 0 || int(plen) != len(p) {
		t.Fatalf("reframe at %d: payload %d bytes, frame holds %d", off, len(p), plen)
	}
	pos := off + int64(n)
	binary.LittleEndian.PutUint32(data[pos:], crc32.ChecksumIEEE(p))
	copy(data[pos+4:], p)
}

func TestOpenIndexMatchesReader(t *testing.T) {
	data := buildTrace(t, WriterOptions{FrameSize: 64}, manyRecords(600))
	r, err := NewReader(data)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	ix, err := OpenIndex(writeTempTrace(t, data))
	if err != nil {
		t.Fatalf("OpenIndex: %v", err)
	}
	if ix.Version != Version || ix.Frames != r.NumFrames() || ix.Records != r.Stats().Records || !ix.HasMerkle {
		t.Fatalf("index mismatch: %+v vs frames=%d records=%d", ix, r.NumFrames(), r.Stats().Records)
	}
	if !reflect.DeepEqual(ix, r.Index()) {
		t.Fatalf("the reader's footer differs from OpenIndex's:\n%+v\n%+v", r.Index(), ix)
	}
	if ix.BytesRead >= ix.FileSize {
		t.Fatalf("OpenIndex read %d of %d bytes — not footer-only", ix.BytesRead, ix.FileSize)
	}
}

func TestVerifyFileRange(t *testing.T) {
	data := buildTrace(t, WriterOptions{FrameSize: 64}, manyRecords(600))
	path := writeTempTrace(t, data)
	ix, err := OpenIndex(path)
	if err != nil {
		t.Fatalf("OpenIndex: %v", err)
	}
	n := ix.Frames
	if n < 8 {
		t.Fatalf("trace too small for the test: %d frames", n)
	}
	for _, w := range [][2]int{{0, n}, {0, 1}, {n - 1, n}, {n / 3, 2 * n / 3}} {
		rc, err := VerifyFileRange(path, w[0], w[1])
		if err != nil {
			t.Fatalf("VerifyFileRange[%d,%d): %v", w[0], w[1], err)
		}
		if rc.BytesRead >= rc.FileSize && w[1]-w[0] < n {
			t.Fatalf("[%d,%d): read the whole file (%d bytes)", w[0], w[1], rc.BytesRead)
		}
	}
	if _, err := VerifyFileRange(path, 2, 2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty range: got %v", err)
	}
	if _, err := VerifyFileRange(path, 0, n+1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("out of bounds: got %v", err)
	}

	// A flipped payload byte inside the range must be caught...
	mid := n / 2
	evil := append([]byte(nil), data...)
	evil[ix.FrameOff[mid]+6] ^= 0xFF
	evilPath := writeTempTrace(t, evil)
	if _, err := VerifyFileRange(evilPath, mid, mid+1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("payload corruption in range: got %v", err)
	}
	// ...and damage OUTSIDE the checked range must not fail the check.
	if _, err := VerifyFileRange(evilPath, 0, mid); err != nil {
		t.Fatalf("range before the damage should verify: %v", err)
	}

	// A tampered out-of-range leaf in the footer (CRC fixed up, so the
	// index parses) must fail the check: the recomputed root no longer
	// matches.
	r, err := NewReader(data)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	idxPayload, _, err := readFrame(data, r.ix.DataEnd, nil)
	if err != nil {
		t.Fatalf("read index frame: %v", err)
	}
	tampered := append([]byte(nil), data...)
	badIdx := append([]byte(nil), idxPayload...)
	// Leaves sit right before the trailing 32-byte root; flip the first
	// byte of leaf mid+1, outside [mid, mid+1).
	badIdx[len(badIdx)-HashSize-HashSize*(n-mid-1)] ^= 0xFF
	reframe(t, tampered, r.ix.DataEnd, badIdx)
	if _, err := VerifyFileRange(writeTempTrace(t, tampered), mid, mid+1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered out-of-range leaf: got %v", err)
	}

	// A tampered in-range leaf over intact frames passes: the check hashes
	// the frames themselves in its place. A range that leaves the leaf
	// out reads it, and fails.
	inRange := append([]byte(nil), data...)
	badLeaf := append([]byte(nil), idxPayload...)
	badLeaf[len(badLeaf)-HashSize-HashSize*(n-mid)] ^= 0xFF
	reframe(t, inRange, r.ix.DataEnd, badLeaf)
	inRangePath := writeTempTrace(t, inRange)
	if _, err := VerifyFileRange(inRangePath, mid, mid+1); err != nil {
		t.Fatalf("tampered in-range leaf over intact frames: got %v", err)
	}
	if _, err := VerifyFileRange(inRangePath, 0, mid); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered leaf outside [0,%d): got %v", mid, err)
	}

	// A tampered root fails even a fully intact range.
	rooted := append([]byte(nil), data...)
	badRoot := append([]byte(nil), idxPayload...)
	badRoot[len(badRoot)-1] ^= 0xFF
	reframe(t, rooted, r.ix.DataEnd, badRoot)
	if _, err := VerifyFileRange(writeTempTrace(t, rooted), 0, n); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered root: got %v", err)
	}
}

// TestDiffTraceFiles diffs three kinds of v3 pairs: identical, changed
// with equal frame counts, and of different frame counts. Each diff reads
// the two footers and nothing else, and agrees with the full scan on
// every result.
func TestDiffTraceFiles(t *testing.T) {
	recs := manyRecords(600)
	opts := WriterOptions{FrameSize: 64}
	base := buildTrace(t, opts, recs)
	basePath := writeTempTrace(t, base)
	baseIx, err := OpenIndex(basePath)
	if err != nil {
		t.Fatal(err)
	}
	// One changed record, same encoded size.
	changed := append([]pipeline.Record(nil), recs...)
	for i := range changed {
		if changed[i].Op == pipeline.OpJrnlStore && i > len(changed)/2 {
			changed[i].KI ^= 1
			break
		}
	}
	for _, tc := range []struct {
		name  string
		other []byte
		check func(d *TraceDiff) bool
	}{
		{"identical", base, func(d *TraceDiff) bool { return d.Identical }},
		{"changed", buildTrace(t, opts, changed), func(d *TraceDiff) bool {
			return d.OldFrames == d.NewFrames && d.ChangedFrames >= 1 && d.ChangedFrames <= 2 && d.ChangedRecords > 0
		}},
		{"shorter", buildTrace(t, opts, recs[:len(recs)*2/3]), func(d *TraceDiff) bool {
			// The common prefix matches; the diff ends at the longer trace's end.
			n := len(d.ChangedRanges)
			return d.NewFrames < d.OldFrames && n > 0 && d.ChangedRanges[0][0] > 0 && d.ChangedRanges[n-1][1] == d.OldFrames
		}},
	} {
		otherPath := writeTempTrace(t, tc.other)
		otherIx, err := OpenIndex(otherPath)
		if err != nil {
			t.Fatal(err)
		}
		d, err := DiffTraceFiles(basePath, otherPath)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		full, err := DiffTraceFilesFull(basePath, otherPath)
		if err != nil {
			t.Fatalf("%s: full diff: %v", tc.name, err)
		}
		if otherIx.Version != Version || !tc.check(d) {
			t.Fatalf("%s: v%d diff %+v", tc.name, otherIx.Version, d)
		}
		if d.FullScan || d.BytesReadOld != baseIx.BytesRead || d.BytesReadNew != otherIx.BytesRead {
			t.Fatalf("%s: read %d + %d bytes (full scan %v), want the footers' %d + %d",
				tc.name, d.BytesReadOld, d.BytesReadNew, d.FullScan, baseIx.BytesRead, otherIx.BytesRead)
		}
		if !full.FullScan || full.BytesReadOld != int64(len(base)) || full.BytesReadNew != int64(len(tc.other)) {
			t.Fatalf("%s: full diff %+v did not read both files", tc.name, full)
		}
		if d.Identical != full.Identical || fmt.Sprint(d.ChangedRanges) != fmt.Sprint(full.ChangedRanges) ||
			d.ChangedFrames != full.ChangedFrames || d.ChangedRecords != full.ChangedRecords {
			t.Fatalf("%s: diff %+v disagrees with the full scan %+v", tc.name, d, full)
		}
	}
}

// TestDiffGoldenV1SlowPath pins the v1 fallback: the checked-in v1 trace
// has no Merkle footer, so diffing it — even against itself — must take the
// full-scan path and still conclude identity.
func TestDiffGoldenV1SlowPath(t *testing.T) {
	data, err := os.ReadFile("testdata/golden_v1.bin")
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	a := writeTempTrace(t, data)
	b := writeTempTrace(t, data)
	d, err := DiffTraceFiles(a, b)
	if err != nil {
		t.Fatalf("diff v1: %v", err)
	}
	if !d.FullScan || !d.Identical {
		t.Fatalf("v1 diff: want identical full scan, got %+v", d)
	}
}

// FuzzReplayV2 exercises the surface traces have from v2 on — the Merkle
// footer, the range check, and the legacy checkpoint frames replay skips —
// on mutated traces. Every failure must be typed: a *CorruptError from the
// range check, which reads the image in memory, and a *CorruptError or
// *IOError elsewhere; a panic or an untyped error fails the fuzz.
func FuzzReplayV2(f *testing.F) {
	recs := manyRecords(200)
	plain := buildTrace(f, WriterOptions{FrameSize: 64}, recs)
	f.Add(plain)
	f.Add(buildTrace(f, WriterOptions{FrameSize: 64, Compress: true}, recs))
	// Seed: the pinned v2 trace, so the v2 decode path stays fuzzed.
	golden, err := os.ReadFile("testdata/golden_v2.bin")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)

	// Seed: the pinned v3 trace with its first checkpoint frame cut short
	// (zeros where the second half of its payload was), CRC valid — replay
	// must skip the frame or refuse it typed, never panic.
	golden3, err := os.ReadFile("testdata/golden_v3.bin")
	if err != nil {
		f.Fatal(err)
	}
	r3, err := NewReader(golden3)
	if err != nil {
		f.Fatal(err)
	}
	if len(r3.ix.Checkpoints) == 0 {
		f.Fatal("golden v3 trace lists no checkpoint frames")
	}
	ck := r3.ix.FrameOff[r3.ix.Checkpoints[0]]
	payload, _, err := readFrame(golden3, ck, nil)
	if err != nil {
		f.Fatalf("read checkpoint: %v", err)
	}
	cut := append([]byte(nil), payload...)
	for i := len(cut) / 2; i < len(cut); i++ {
		cut[i] = 0
	}
	truncated := append([]byte(nil), golden3...)
	reframeF(f, truncated, ck, cut)
	f.Add(truncated)

	// Seed: a corrupted Merkle leaf in the footer, CRC fixed up so the
	// index parses and the range check must catch the damage by its
	// recomputed root.
	r, err := NewReader(plain)
	if err != nil {
		f.Fatal(err)
	}
	idxPayload, _, err := readFrame(plain, r.ix.DataEnd, nil)
	if err != nil {
		f.Fatalf("read index: %v", err)
	}
	badIdx := append([]byte(nil), idxPayload...)
	badIdx[len(badIdx)-HashSize-3] ^= 0xFF
	badMerkle := append([]byte(nil), plain...)
	reframeF(f, badMerkle, r.ix.DataEnd, badIdx)
	f.Add(badMerkle)
	// Seed: the pinned v3 trace, written with checkpoint frames.
	f.Add(golden3)

	f.Fuzz(func(t *testing.T, data []byte) {
		// The range check reads the footer itself, so it runs on every
		// image, over one frame a third of the way in (out of bounds when
		// the footer lists none).
		lo := 0
		if ix, err := readIndex(bytes.NewReader(data), int64(len(data))); err == nil {
			lo = ix.Frames / 3
		}
		_, err := verifyRange(bytes.NewReader(data), int64(len(data)), lo, lo+1)
		var ce *CorruptError
		if err != nil && !errors.As(err, &ce) {
			t.Fatalf("range check: untyped error: %v", err)
		}
		r, err := NewReader(data)
		if err != nil {
			mustTyped(t, err)
			return
		}
		mustTyped(t, r.Replay(func(*pipeline.Record) {}))
	})
}

// reframeF is reframe for fuzz seeds.
func reframeF(f *testing.F, data []byte, off int64, p []byte) {
	f.Helper()
	plen, n := binary.Uvarint(data[off:])
	if n <= 0 || int(plen) != len(p) {
		f.Fatalf("reframe at %d: payload %d bytes, frame holds %d", off, len(p), plen)
	}
	pos := off + int64(n)
	binary.LittleEndian.PutUint32(data[pos:], crc32.ChecksumIEEE(p))
	copy(data[pos+4:], p)
}

// mustTyped accepts nil and typed corruption errors; anything else fails.
func mustTyped(t *testing.T, err error) {
	t.Helper()
	if err == nil || errors.Is(err, ErrCorrupt) {
		return
	}
	var ioe *IOError
	if errors.As(err, &ioe) {
		return
	}
	t.Fatalf("untyped error: %v", err)
}

// allocated reports how many heap bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestForgedCountsRefused: an index whose frame count the payload cannot
// hold is refused typed, with preallocation bounded by the payload rather
// than by the count.
func TestForgedCountsRefused(t *testing.T) {
	// An index claiming 2^32-1 frames, then one frame entry and the end.
	index := binary.AppendUvarint(nil, 1<<32-1)
	index = binary.AppendUvarint(index, headerSize)
	index = binary.AppendUvarint(index, 1)
	var err error
	n := allocated(func() { err = (&Index{Version: Version, DataEnd: 1 << 20}).parse(index) })
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
	if n > 1<<20 {
		t.Errorf("decoding a %d-byte forged index allocated %d bytes", len(index), n)
	}
}

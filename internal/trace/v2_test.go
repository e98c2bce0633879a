package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"algoprof/internal/events/pipeline"
)

// TestMerkleProofExhaustive checks every (n, lo, hi) combination up to a
// tree of 17 leaves: the proof must verify against the true leaves and must
// reject any tampered leaf in range.
func TestMerkleProofExhaustive(t *testing.T) {
	for n := 1; n <= 17; n++ {
		leaves := make([]Hash, n)
		for i := range leaves {
			leaves[i] = leafHash([]byte{byte(i), byte(n), 0x5a})
		}
		levels := buildLevels(leaves)
		root := merkleRoot(leaves)
		for lo := 0; lo < n; lo++ {
			for hi := lo + 1; hi <= n; hi++ {
				proof := proveRange(levels, lo, hi)
				if err := VerifyRangeProof(root, lo, hi, leaves[lo:hi], proof); err != nil {
					t.Fatalf("n=%d [%d,%d): valid proof rejected: %v", n, lo, hi, err)
				}
				bad := append([]Hash(nil), leaves[lo:hi]...)
				bad[(hi-lo-1)/2][0] ^= 0xFF
				if err := VerifyRangeProof(root, lo, hi, bad, proof); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("n=%d [%d,%d): tampered leaf accepted (err=%v)", n, lo, hi, err)
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
	if ix.Version != Version || ix.Frames != r.NumFrames() || ix.Records != r.Stats().Records {
		t.Fatalf("index mismatch: %+v vs frames=%d records=%d", ix, r.NumFrames(), r.Stats().Records)
	}
	root, ok := r.MerkleRoot()
	if !ok || !ix.HasMerkle || ix.Root != root {
		t.Fatalf("merkle root mismatch: index %x reader %x (ok=%v)", ix.Root, root, ok)
	}
	if got, want := fmt.Sprint(ix.Checkpoints), fmt.Sprint(r.Checkpoints()); got != want {
		t.Fatalf("checkpoints: index %s reader %s", got, want)
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
	// ...and damage OUTSIDE the verified range must not fail the proof.
	if _, err := VerifyFileRange(evilPath, 0, mid); err != nil {
		t.Fatalf("range before the damage should verify: %v", err)
	}

	// A tampered SIBLING leaf in the footer (CRC fixed up, so the index
	// parses) must fail the proof: the recombined root no longer matches.
	// (An in-range footer leaf is unused — the proof hashes the actual
	// frame bytes — so tampering there changes nothing, correctly.)
	r, err := NewReader(data)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	idxPayload, _, err := readFrame(data, r.dataEnd, nil)
	if err != nil {
		t.Fatalf("read index frame: %v", err)
	}
	tampered := append([]byte(nil), data...)
	badIdx := append([]byte(nil), idxPayload...)
	// Leaves sit right before the trailing 32-byte root; flip the first
	// byte of leaf mid+1, a proof sibling for [mid, mid+1).
	badIdx[len(badIdx)-HashSize-HashSize*(n-mid-1)] ^= 0xFF
	reframe(t, tampered, r.dataEnd, badIdx)
	if _, err := VerifyFileRange(writeTempTrace(t, tampered), mid, mid+1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered sibling leaf: got %v", err)
	}

	// A tampered root fails even a fully intact range.
	rooted := append([]byte(nil), data...)
	badRoot := append([]byte(nil), idxPayload...)
	badRoot[len(badRoot)-1] ^= 0xFF
	reframe(t, rooted, r.dataEnd, badRoot)
	if _, err := VerifyFileRange(writeTempTrace(t, rooted), 0, n); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered root: got %v", err)
	}
}

func TestDiffTraceFiles(t *testing.T) {
	recs := manyRecords(600)
	opts := WriterOptions{FrameSize: 64}
	base := buildTrace(t, opts, recs)
	basePath := writeTempTrace(t, base)

	// Identical pair: one root comparison, footer bytes only.
	samePath := writeTempTrace(t, base)
	d, err := DiffTraceFiles(basePath, samePath)
	if err != nil {
		t.Fatalf("diff identical: %v", err)
	}
	if !d.Identical || d.HashComparisons != 1 || d.FullScan {
		t.Fatalf("identical diff: %+v", d)
	}
	if d.BytesReadOld >= int64(len(base)) {
		t.Fatalf("identical diff read %d of %d bytes", d.BytesReadOld, len(base))
	}

	// One changed record, same encoded size: the descent must localize the
	// change to few frames with O(log n) comparisons, not O(n).
	changed := append([]pipeline.Record(nil), recs...)
	for i := range changed {
		if changed[i].Op == pipeline.OpJrnlStore && i > len(changed)/2 {
			changed[i].KI ^= 1
			break
		}
	}
	otherPath := writeTempTrace(t, buildTrace(t, opts, changed))
	d, err = DiffTraceFiles(basePath, otherPath)
	if err != nil {
		t.Fatalf("diff changed: %v", err)
	}
	if d.Identical || d.FullScan {
		t.Fatalf("changed diff took wrong path: %+v", d)
	}
	if d.ChangedFrames == 0 || d.ChangedFrames > 2 {
		t.Fatalf("changed diff localization: %d frames changed (%v)", d.ChangedFrames, d.ChangedRanges)
	}
	if d.ChangedRecords == 0 {
		t.Fatalf("changed diff reports no records")
	}
	if d.HashComparisons >= d.NewFrames {
		t.Fatalf("descent made %d comparisons over %d frames — no subtree skipping", d.HashComparisons, d.NewFrames)
	}

	// The forced full scan agrees on the changed set, at full-read cost.
	full, err := DiffTraceFilesFull(basePath, otherPath)
	if err != nil {
		t.Fatalf("full diff: %v", err)
	}
	if !full.FullScan || fmt.Sprint(full.ChangedRanges) != fmt.Sprint(d.ChangedRanges) {
		t.Fatalf("full diff disagrees: %v vs %v", full.ChangedRanges, d.ChangedRanges)
	}
	if full.BytesReadOld != int64(len(base)) {
		t.Fatalf("full diff read %d, want %d", full.BytesReadOld, len(base))
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
// footer, range proofs, and the legacy checkpoint frames replay skips — on
// mutated traces. Every failure must be a typed *CorruptError; a panic or
// an untyped error fails the fuzz.
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
	if len(r3.ckpts) == 0 {
		f.Fatal("golden v3 trace lists no checkpoint frames")
	}
	ck := r3.frameOff[r3.ckpts[0]]
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

	// Seed: a corrupted Merkle node in the footer, CRC fixed up so the
	// index parses and the damage must be caught by hash comparison.
	r, err := NewReader(plain)
	if err != nil {
		f.Fatal(err)
	}
	idxPayload, _, err := readFrame(plain, r.dataEnd, nil)
	if err != nil {
		f.Fatalf("read index: %v", err)
	}
	badIdx := append([]byte(nil), idxPayload...)
	badIdx[len(badIdx)-HashSize-3] ^= 0xFF
	badMerkle := append([]byte(nil), plain...)
	reframeF(f, badMerkle, r.dataEnd, badIdx)
	f.Add(badMerkle)
	// Seed: the pinned v3 trace, written with checkpoint frames.
	f.Add(golden3)

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(data)
		if err != nil {
			mustTyped(t, err)
			return
		}
		mustTyped(t, r.Replay(func(*pipeline.Record) {}))
		if n := r.NumFrames(); r.HasMerkle() && n > 0 {
			lo, hi := n/3, n/3+1
			proof, err := r.ProveRange(lo, hi)
			if err != nil {
				mustTyped(t, err)
				return
			}
			root, _ := r.MerkleRoot()
			leaves := r.Leaves()
			mustTyped(t, VerifyRangeProof(root, lo, hi, leaves[lo:hi], proof))
		}
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
	n := allocated(func() { _, err = parseIndexData(index, Version, 1<<20) })
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
	if n > 1<<20 {
		t.Errorf("decoding a %d-byte forged index allocated %d bytes", len(index), n)
	}
}

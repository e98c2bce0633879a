package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"algoprof/internal/events/pipeline"
)

// TestWriterAbortRecovers: Abort flushes buffered records but writes no
// index or trailer — the crash shape. The reader must recover every
// record written before the abort.
func TestWriterAbortRecovers(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	tw := NewWriter(&buf, WriterOptions{FrameSize: 4})
	for i := range recs {
		tw.Record(&recs[i])
	}
	if err := tw.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}

	r, err := NewReader(buf.Bytes())
	if err != nil {
		t.Fatalf("aborted trace does not open: %v", err)
	}
	if !r.Stats().Truncated {
		t.Error("aborted trace not flagged truncated")
	}
	var got []pipeline.Record
	if err := r.Replay(func(rec *pipeline.Record) { got = append(got, *rec) }); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("recovered %d records, want all %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Op != recs[i].Op || got[i].Clock != recs[i].Clock || got[i].KS != recs[i].KS {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

// TestWriterMaxBytes: the size cap stops capture at a frame boundary but
// Close still writes the index and trailer, so the capped trace is a
// complete, strictly-readable file over the captured prefix.
func TestWriterMaxBytes(t *testing.T) {
	var full bytes.Buffer
	tw := NewWriter(&full, WriterOptions{FrameSize: 2})
	var rec pipeline.Record
	for i := 0; i < 200; i++ {
		rec = pipeline.Record{Op: pipeline.OpMethodEntry, Clock: uint64(i + 1), ID: int32(i)}
		tw.Record(&rec)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	fr, err := NewReader(full.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// Cap at a quarter of the data extent (not the file size: the v2 index
	// carries one hash per frame, which at FrameSize 2 dwarfs the data).
	var capped bytes.Buffer
	tw = NewWriter(&capped, WriterOptions{FrameSize: 2, MaxBytes: fr.ix.DataEnd / 4})
	for i := 0; i < 200; i++ {
		rec = pipeline.Record{Op: pipeline.OpMethodEntry, Clock: uint64(i + 1), ID: int32(i)}
		tw.Record(&rec)
	}
	if !tw.Truncated() {
		t.Fatal("writer under cap not marked truncated")
	}
	if tw.DroppedRecords() == 0 {
		t.Error("no dropped records counted")
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(capped.Bytes())
	if err != nil {
		t.Fatalf("capped trace does not open: %v", err)
	}
	if r.Stats().Truncated {
		t.Error("capped trace needed recovery; want a complete file")
	}
	var n uint64
	last := uint64(0)
	if err := r.Replay(func(rec *pipeline.Record) { n++; last = rec.Clock }); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if n == 0 || n >= 200 {
		t.Errorf("capped trace replayed %d records, want a strict nonempty prefix", n)
	}
	if n+tw.DroppedRecords() != 200 {
		t.Errorf("kept %d + dropped %d != 200 records", n, tw.DroppedRecords())
	}
	if last != n {
		t.Errorf("prefix is not contiguous: last clock %d after %d records", last, n)
	}
}

// TestFuzzCorpusRecovery pins the fuzz corpus as regression fixtures for
// the normal test run: every corpus input must open-or-refuse without a
// panic, and any input that opens must replay without one.
func TestFuzzCorpusRecovery(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzReplay")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Skipf("no fuzz corpus: %v", err)
	}
	tested := 0
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		input, ok := decodeCorpus(string(data))
		if !ok {
			t.Errorf("corpus file %s does not parse", e.Name())
			continue
		}
		tested++
		r, err := NewReader(input)
		if err != nil {
			continue
		}
		var n int
		_ = r.Replay(func(*pipeline.Record) { n++ })
		if st := r.Stats(); st.Truncated && st.Records != 0 && n == 0 {
			// Recovery promised records but replay produced none — the
			// recovered index disagrees with the frames.
			t.Errorf("corpus %s: recovered stats claim %d records, replayed 0", e.Name(), st.Records)
		}
	}
	if tested == 0 {
		t.Skip("fuzz corpus directory empty")
	}
}

// decodeCorpus parses the go fuzz corpus file format: a version line
// followed by one []byte(...) Go literal per fuzz argument.
func decodeCorpus(s string) ([]byte, bool) {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "go test fuzz") {
		return nil, false
	}
	lit := strings.TrimSpace(lines[1])
	lit = strings.TrimPrefix(lit, "[]byte(")
	lit = strings.TrimSuffix(lit, ")")
	unq, err := strconv.Unquote(lit)
	if err != nil {
		return nil, false
	}
	return []byte(unq), true
}

package algoprof_test

import (
	"bytes"
	"testing"

	"algoprof"
	"algoprof/internal/trace"
	"algoprof/internal/workloads"
)

// TestRecordedTraceSize guards the entity-id delta coding of trace format
// v3: the scanned running example of the record-replay benchmark,
// recorded with compression, must store at most a quarter byte per
// record. With absolute ids (v2) it stored 1.09: iterations that repeat
// one access pattern over entities born one after another differ in every
// id, so DEFLATE finds no repeats across them.
func TestRecordedTraceSize(t *testing.T) {
	src := workloads.RunningExampleScanned(workloads.Reversed, 64, 8, 2, 2)
	var buf bytes.Buffer
	if _, err := algoprof.Record(src, algoprof.Config{}, &buf, trace.WriterOptions{Compress: true}); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Version != trace.Version || st.Records == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if per := float64(buf.Len()) / float64(st.Records); per > 0.25 {
		t.Errorf("%d bytes for %d records: %.3f bytes per record, want at most 0.25", buf.Len(), st.Records, per)
	}
}

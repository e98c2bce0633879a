package algoprof_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"algoprof"
	"algoprof/internal/mj/compiler"
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

// cancelAfter is a context that cancels itself on its n-th Err call. A
// replay checks Err once per frame, so the cancellation lands on a frame
// boundary in the middle of the trace.
type cancelAfter struct {
	context.Context
	cancel context.CancelFunc
	n      int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestReplayCancelled: a context cancelled mid-replay stops
// ReplayProgramThreadsContext at the next frame boundary with
// context.Canceled; no later frame is read.
func TestReplayCancelled(t *testing.T) {
	src := workloads.RunningExample(workloads.Random, 24, 8, 2)
	var buf bytes.Buffer
	if _, err := algoprof.Record(src, algoprof.Config{}, &buf, trace.WriterOptions{FrameSize: 512}); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if r.NumFrames() < 4 {
		t.Fatalf("trace has %d frames; the test wants many", r.NumFrames())
	}
	prog, err := compiler.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &cancelAfter{Context: parent, cancel: cancel, n: 3}
	if _, err := algoprof.ReplayProgramThreadsContext(ctx, prog, algoprof.Config{}, r, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("replay err = %v, want context.Canceled", err)
	}
	if ctx.n != 0 {
		t.Fatalf("replay checked the context %d more times after it was cancelled", -ctx.n)
	}
}

package trace

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"algoprof/internal/events/pipeline"
	"algoprof/internal/faultinject"
)

// failAfter is an io.Writer that accepts n bytes, then fails every write
// with err.
type failAfter struct {
	n   int
	err error
}

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriterIOErrorOffset: a failing sink surfaces through the writer as a
// typed *IOError carrying the file offset of the failed write, with the
// raw cause intact for errors.Is.
func TestWriterIOErrorOffset(t *testing.T) {
	cause := fmt.Errorf("sink: %w", io.ErrClosedPipe)
	sink := &failAfter{n: 32, err: cause}
	tw := NewWriter(sink, WriterOptions{FrameSize: 8})
	recs := sampleRecords()
	for i := range recs {
		tw.Record(&recs[i])
	}
	err := tw.Close()
	if err == nil {
		t.Fatal("writer over failing sink closed clean")
	}
	var ioe *IOError
	if !errors.As(err, &ioe) {
		t.Fatalf("err = %v (%T), want *IOError", err, err)
	}
	if ioe.Op != "write" {
		t.Errorf("Op = %q, want write", ioe.Op)
	}
	if ioe.Off < 0 || ioe.Off > 32 {
		t.Errorf("Off = %d, want the offset of the failed write (0..32)", ioe.Off)
	}
	if !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("err = %v, want the sink's cause in the chain", err)
	}
}

// TestCorruptErrorOffset: frame corruption reports the offset of the
// offending frame, classifies as a corruption fault, and still matches
// ErrCorrupt.
func TestCorruptErrorOffset(t *testing.T) {
	data := buildTrace(t, WriterOptions{FrameSize: 8}, sampleRecords())
	corrupted := append([]byte(nil), data...)
	corrupted[headerSize+6] ^= 0xFF
	r, err := NewReader(corrupted)
	if err == nil {
		err = r.Replay(func(*pipeline.Record) {})
	}
	if err == nil {
		t.Fatal("corrupted frame replayed clean")
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v (%T), want *CorruptError", err, err)
	}
	if ce.Off != int64(headerSize) {
		t.Errorf("Off = %d, want the corrupted frame's offset %d", ce.Off, headerSize)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Error("corruption error does not match ErrCorrupt")
	}
	if got := faultinject.ClassOf(err); got != faultinject.Corruption {
		t.Errorf("ClassOf = %v, want corruption", got)
	}

	// The footer reads name file offsets too, though they read the index
	// frame and a frame range into buffers of their own.
	ix, err := OpenIndex(writeTempTrace(t, data))
	if err != nil {
		t.Fatal(err)
	}
	wantOff := func(what string, err error, off int64) {
		t.Helper()
		if !errors.As(err, &ce) || ce.Off != off {
			t.Errorf("%s: err = %v, want a *CorruptError at offset %d", what, err, off)
		}
	}
	badIndex := append([]byte(nil), data...)
	badIndex[ix.DataEnd+6] ^= 0xFF
	_, err = OpenIndex(writeTempTrace(t, badIndex))
	wantOff("OpenIndex", err, ix.DataEnd)
	k := ix.Frames / 2
	badFrame := append([]byte(nil), data...)
	badFrame[ix.FrameOff[k]+6] ^= 0xFF
	_, err = VerifyFileRange(writeTempTrace(t, badFrame), k-1, k+1)
	wantOff("VerifyFileRange", err, ix.FrameOff[k])
}

// TestShortWriteTransient: a short write from the sink classifies as
// transient — the caller's retry policy is allowed to rewrite the file.
func TestShortWriteTransient(t *testing.T) {
	sink := &failAfter{n: 4, err: io.ErrShortWrite}
	tw := NewWriter(sink, WriterOptions{})
	recs := sampleRecords()
	for i := range recs {
		tw.Record(&recs[i])
	}
	err := tw.Close()
	if err == nil {
		t.Fatal("writer over short-writing sink closed clean")
	}
	if got := faultinject.ClassOf(err); got != faultinject.Transient {
		t.Errorf("ClassOf = %v, want transient", got)
	}
}

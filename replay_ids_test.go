package algoprof_test

import (
	"bytes"
	"runtime"
	"testing"

	"algoprof"
	"algoprof/internal/events/pipeline"
	"algoprof/internal/faultinject"
	"algoprof/internal/mj/bytecode"
	"algoprof/internal/trace"
)

// oneLoopSrc is the program the hand-made traces below replay against:
// one loop, loop 0, that loads from an array.
const oneLoopSrc = `
class Main {
  public static void main() {
    int[] a = new int[8];
    int s = 0;
    for (int i = 0; i < 8; i++) { s = s + a[i]; }
    print(s);
  }
}`

// handTrace writes recs, clocked in order, as a trace.
func handTrace(t testing.TB, recs ...pipeline.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf, trace.WriterOptions{})
	for i := range recs {
		recs[i].Clock = uint64(i + 1)
		tw.Record(&recs[i])
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loopLoads is one pass of loop 0 that loads once from each of the arrays
// ids name, none of them journaled.
func loopLoads(ids ...int64) []pipeline.Record {
	recs := []pipeline.Record{{Op: pipeline.OpLoopEntry}}
	for _, id := range ids {
		recs = append(recs, pipeline.Record{Op: pipeline.OpArrayLoad, Ent: id})
	}
	return append(recs, pipeline.Record{Op: pipeline.OpLoopExit})
}

// spanIDs returns one id in each of n thread spans, 2^40 apart.
func spanIDs(n int) []int64 {
	ids := make([]int64, n)
	for k := range ids {
		ids[k] = int64(k)<<40 + 1
	}
	return ids
}

// replayBytes decodes data and replays it against prog.
func replayBytes(prog *bytecode.Program, cfg algoprof.Config, data []byte) (*algoprof.Profile, error) {
	r, err := trace.NewReader(data)
	if err != nil {
		return nil, err
	}
	return algoprof.ReplayProgram(prog, cfg, r)
}

// allocBytes returns the bytes f allocates.
func allocBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReplayHostileIDsBounded: the profiler's id tables cost memory in
// proportion to the ids a trace names, never to their values. Two loads
// 2^24 ids apart in one span, and loads in 10 000 spans, each replay
// within the 16 MiB the trace decoder's own hostile-id test allows.
func TestReplayHostileIDsBounded(t *testing.T) {
	prog := compile(t, oneLoopSrc)
	for _, tc := range []struct {
		name string
		ids  []int64
	}{
		{"two ids 2^24 apart", []int64{1, 1 + 1<<24}},
		{"10 000 spans", spanIDs(10_000)},
	} {
		data := handTrace(t, loopLoads(tc.ids...)...)
		var err error
		b := allocBytes(func() { _, err = replayBytes(prog, algoprof.Config{Verify: true}, data) })
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if b >= 16<<20 {
			t.Errorf("%s: replay allocated %d bytes, want < 16 MiB", tc.name, b)
		}
	}
}

// TestReplayRefusesUnknownLoop: a trace that names a loop the program
// lacks fails its replay as corruption instead of panicking at report
// time, with or without the verifier.
func TestReplayRefusesUnknownLoop(t *testing.T) {
	prog := compile(t, oneLoopSrc)
	data := handTrace(t, pipeline.Record{Op: pipeline.OpLoopEntry, ID: 999})
	for _, verify := range []bool{false, true} {
		_, err := replayBytes(prog, algoprof.Config{Verify: verify}, data)
		if c := faultinject.ClassOf(err); c != faultinject.Corruption {
			t.Fatalf("Verify=%v: err = %v (class %v), want corruption", verify, err, c)
		}
	}
}

// FuzzReplayProgram carries the decoders' recover-or-refuse contract
// through the profiler: arbitrary bytes, decoded and replayed against one
// fixed program with the verifier on, as the run audit replays, end in a
// profile or a typed error — never a panic, and never tables sized by an
// id's value.
func FuzzReplayProgram(f *testing.F) {
	prog := compile(f, oneLoopSrc)
	var rec bytes.Buffer
	if _, err := algoprof.Record(oneLoopSrc, algoprof.Config{}, &rec, trace.WriterOptions{}); err != nil {
		f.Fatal(err)
	}
	f.Add(rec.Bytes())
	f.Add(handTrace(f, loopLoads(1, 1+1<<24)...))
	f.Add(handTrace(f, loopLoads(spanIDs(10_000)...)...))
	f.Add(handTrace(f, pipeline.Record{Op: pipeline.OpLoopEntry, ID: 999}))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := replayBytes(prog, algoprof.Config{Verify: true}, data)
		if err != nil && faultinject.ClassOf(err) == faultinject.Unknown {
			t.Fatalf("untyped error: %v", err)
		}
	})
}

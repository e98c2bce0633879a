package algoprof_test

import (
	"bytes"
	"errors"
	"testing"

	"algoprof"
	"algoprof/internal/events/pipeline"
	"algoprof/internal/faultinject"
	"algoprof/internal/mj/bytecode"
	"algoprof/internal/mj/compiler"
	"algoprof/internal/trace"
	"algoprof/internal/verify"
	"algoprof/internal/workloads"
)

func compile(t testing.TB, src string) *bytecode.Program {
	t.Helper()
	prog, err := compiler.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// dropOneLoopExit re-encodes a trace with the middle loop-exit record
// removed. Every frame CRC is valid in the result; only the stream's
// meaning is damaged — exactly the class of fault a checksum cannot catch
// and the invariant verifier must.
func dropOneLoopExit(t *testing.T, data []byte) []byte {
	t.Helper()
	r, err := trace.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	var recs []pipeline.Record
	if err := r.Replay(func(rec *pipeline.Record) {
		recs = append(recs, *rec)
	}); err != nil {
		t.Fatal(err)
	}
	var exits []int
	for i := range recs {
		if recs[i].Op == pipeline.OpLoopExit {
			exits = append(exits, i)
		}
	}
	if len(exits) == 0 {
		t.Fatal("trace has no loop exits to drop")
	}
	drop := exits[len(exits)/2]
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf, trace.WriterOptions{})
	for i := range recs {
		if i == drop {
			continue
		}
		tw.Record(&recs[i])
	}
	tw.SetInstructions(r.Stats().Instructions)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// verifyCorpus covers the stream shapes that have historically been the
// tricky ones: nested loops with data structures, recursion with folding
// (merge sort), exceptions unwinding through open loops, and growth
// workloads with heavy journal traffic.
func verifyCorpus() map[string]string {
	return map[string]string{
		"running":   workloads.RunningExample(workloads.Random, 48, 8, 1),
		"sorts":     workloads.MergeVsInsertion(32, 8, 1),
		"growth":    workloads.ArrayListGrow(false, 48, 8, 1),
		"listing4":  workloads.Listing4(24),
		"exception": exceptionSrc,
	}
}

// exceptionSrc throws out of a nested loop inside a helper method, so the
// unwind path (loop exits emitted innermost-first, then the method exit)
// is part of the verified stream.
const exceptionSrc = `
class Stop { int at; Stop(int at) { this.at = at; } }
class Main {
  public static void main() {
    int total = 0;
    for (int r = 0; r < 6; r++) {
      total = total + scan(r);
    }
    check(total > 0);
  }
  static int scan(int limit) {
    int n = 0;
    try {
      for (int i = 0; i < 10; i++) {
        for (int j = 0; j < 10; j++) {
          n = n + 1;
          if (i * 10 + j > limit * 7) { throw new Stop(n); }
        }
      }
    } catch (Stop s) {
      return s.at;
    }
    return n;
  }
}`

// TestVerifyCleanRuns: the online verifier must pass every corpus program
// on every path — live run, record, and replay — and the verified profile
// must be identical to the unverified one.
func TestVerifyCleanRuns(t *testing.T) {
	for name, src := range verifyCorpus() {
		t.Run(name, func(t *testing.T) {
			base, err := algoprof.Run(src, algoprof.Config{})
			if err != nil {
				t.Fatalf("baseline run: %v", err)
			}
			p, err := algoprof.Run(src, algoprof.Config{Verify: true})
			if err != nil {
				t.Fatalf("verified run: %v", err)
			}
			assertSameAlgorithms(t, "run", base, p)
			var buf bytes.Buffer
			p, err = algoprof.Record(src, algoprof.Config{Verify: true}, &buf, trace.WriterOptions{})
			if err != nil {
				t.Fatalf("verified record: %v", err)
			}
			assertSameAlgorithms(t, "record", base, p)

			r, err := trace.NewReader(buf.Bytes())
			if err != nil {
				t.Fatalf("reopen trace: %v", err)
			}
			prog := compile(t, src)
			rp, err := algoprof.ReplayProgram(prog, algoprof.Config{Verify: true}, r)
			if err != nil {
				t.Fatalf("verified replay: %v", err)
			}
			assertSameAlgorithms(t, "replay", base, rp)
		})
	}
}

// TestVerifySampledRun: cost conservation must hold under invocation
// sampling (totals exact, history thinned).
func TestVerifySampledRun(t *testing.T) {
	src := workloads.RunningExample(workloads.Random, 48, 8, 1)
	if _, err := algoprof.Run(src, algoprof.Config{Verify: true, SampleEvery: 4}); err != nil {
		t.Fatalf("verified sampled run: %v", err)
	}
	if _, err := algoprof.Run(src, algoprof.Config{Verify: true, Limits: algoprof.Limits{MaxEvents: 500}}); err != nil {
		t.Fatalf("verified degraded run: %v", err)
	}
}

// TestVerifyFlagsCorruptStream: a deliberately damaged stream must fail
// the verified replay with a typed corruption-class error, never pass.
func TestVerifyFlagsCorruptStream(t *testing.T) {
	src := workloads.RunningExample(workloads.Random, 32, 8, 1)
	var buf bytes.Buffer
	if _, err := algoprof.Record(src, algoprof.Config{}, &buf, trace.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	// Re-frame the trace with one loop-exit record dropped: frame CRCs are
	// recomputed, so only the verifier can notice the imbalance.
	data := dropOneLoopExit(t, buf.Bytes())
	r, err := trace.NewReader(data)
	if err != nil {
		t.Fatalf("reopen tampered trace: %v", err)
	}
	prog := compile(t, src)
	_, err = algoprof.ReplayProgram(prog, algoprof.Config{Verify: true}, r)
	if err == nil {
		t.Fatal("verified replay of tampered trace succeeded")
	}
	var verr *verify.Error
	if !errors.As(err, &verr) {
		t.Fatalf("error %v (%T), want *verify.Error", err, err)
	}
	if got := faultinject.ClassOf(err); got != faultinject.Corruption {
		t.Errorf("ClassOf = %v, want corruption", got)
	}
}

func assertSameAlgorithms(t *testing.T, label string, want, got *algoprof.Profile) {
	t.Helper()
	wj, err := want.JSON()
	if err != nil {
		t.Fatal(err)
	}
	gj, err := got.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wj, gj) {
		t.Errorf("%s: verified profile differs from baseline", label)
	}
}

package algoprof

import (
	"errors"
	"io"
	"testing"

	"algoprof/internal/cct"
	"algoprof/internal/core"
	"algoprof/internal/events/pipeline"
	"algoprof/internal/mj/compiler"
	"algoprof/internal/trace"
	"algoprof/internal/verify"
	"algoprof/internal/vm"
)

// TestSessionWiring: a thread with no rider — verifier, trace writer or
// comparison profilers — hands the VM its profiler itself, keeping plain
// runs off the record stream; any rider moves the events onto a producer
// feeding the session, and the verifier or the trace writer the heap
// journal too. The comparison profilers run the VM under the union plan
// and take its instruction hook.
func TestSessionWiring(t *testing.T) {
	prog, err := compiler.CompileSource(`class Main { public static void main() { print(1); } }`)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := instrumentFor(prog, Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	recorder := func() *trace.Writer { return trace.NewWriter(io.Discard, trace.WriterOptions{}) }
	for _, tc := range []struct {
		name            string
		cfg             Config
		tw              *trace.Writer
		direct, journal bool
	}{
		{"plain", Config{}, nil, true, false},
		{"verified", Config{Verify: true}, nil, false, true},
		{"recorded", Config{}, recorder(), false, true},
		{"backends", Config{Backends: true}, nil, false, false},
		{"backends-recorded", Config{Backends: true}, recorder(), false, true},
	} {
		ts := newSession(ins, tc.cfg, 0, tc.tw).wire(ins)
		_, direct := ts.Listener.(*core.Profiler)
		if direct != tc.direct || (ts.Journal != nil) != tc.journal || (ts.BindClock == nil) != tc.direct {
			t.Errorf("%s: listener %T, journal %v, clock bound %v; want direct wiring %v, journal %v",
				tc.name, ts.Listener, ts.Journal != nil, ts.BindClock != nil, tc.direct, tc.journal)
		}
		if union := ts.Plan != ins.Plan && ts.Plan.MethodEntryExit[prog.Main().Method.ID]; union != tc.cfg.Backends || (ts.InstrHook != nil) != tc.cfg.Backends {
			t.Errorf("%s: union plan %v, instruction hook %v; want both %v",
				tc.name, union, ts.InstrHook != nil, tc.cfg.Backends)
		}
	}
}

// TestSessionVerifiesCCT: a verified session with the comparison
// profilers checks the CCT against the stream when it finishes, so a CCT
// that drifted from the stream fails the thread with a typed violation.
func TestSessionVerifiesCCT(t *testing.T) {
	prog, err := compiler.CompileSource(`
class Main {
  public static void main() {
    int s = 0;
    for (int i = 0; i < 3; i++) { s = s + inc(i); }
    print(s);
  }
  static int inc(int x) { return x + 1; }
}`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Backends: true, Verify: true}
	ins, err := instrumentFor(prog, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	finish := func(damage func(*cct.Profiler)) error {
		s := newSession(ins, cfg, 0, nil)
		ts := s.wire(ins)
		machine := vm.New(ins.Prog, vm.Config{Listener: ts.Listener, Plan: ts.Plan, Journal: ts.Journal, InstrHook: ts.InstrHook, Seed: 1})
		ts.BindClock(&machine.InstrCount)
		if err := machine.Run(); err != nil {
			t.Fatal(err)
		}
		damage(s.cct)
		_, err := s.finish(cfg, false)
		return err
	}
	if err := finish(func(*cct.Profiler) {}); err != nil {
		t.Fatalf("clean session: %v", err)
	}
	err = finish(func(c *cct.Profiler) { c.Root().Children[0].Calls++ })
	var ve *verify.Error
	if !errors.As(err, &ve) || ve.Violations[0].Rule != "stream-cct" {
		t.Fatalf("session with a drifted CCT returned %v, want a stream-cct violation", err)
	}
}

// TestSessionTimesCCTByRecordClock: the session times the CCT by the
// clock each record carries, not by any live counter, so a replayed trace
// reproduces the live run's costs. Ticks reach the block counter.
func TestSessionTimesCCTByRecordClock(t *testing.T) {
	prog, err := compiler.CompileSource(`class Main { public static void main() { print(1); } }`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Backends: true}
	ins, err := instrumentFor(prog, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	s := newSession(ins, cfg, 0, nil)
	main := int32(prog.MainID)
	for _, r := range []pipeline.Record{
		{Op: pipeline.OpMethodEntry, ID: main, Clock: 5},
		{Op: pipeline.OpInstr, ID: main, Clock: 6},
		{Op: pipeline.OpMethodExit, ID: main, Clock: 42},
	} {
		s.Record(&r)
	}
	if n := s.cct.Root().Children[0]; n.Calls != 1 || n.Inclusive != 37 {
		t.Errorf("main's CCT node: %d calls, %d cost; want 1 call costing 42-5 = 37", n.Calls, n.Inclusive)
	}
	if b := s.bb.Snapshot(0); len(b.Counts) != 1 {
		t.Errorf("block counts %v, want main's entry block once", b.Counts)
	}
}

// BenchmarkSessionDelivery times a record's way from a verified thread's
// producer through its session to the profiler, filtered to its plan,
// and the verifier.
func BenchmarkSessionDelivery(b *testing.B) {
	prog, err := compiler.CompileSource(`
class Main {
  public static void main() {
    int s = 0;
    for (int i = 0; i < 8; i++) { s = s + i; }
    print(s);
  }
}`)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Verify: true}
	ins, err := instrumentFor(prog, cfg, false)
	if err != nil {
		b.Fatal(err)
	}
	s := newSession(ins, cfg, 0, nil)
	l := s.wire(ins).Listener
	l.LoopEntry(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.LoopBack(0)
	}
	b.StopTimer()
	l.LoopExit(0)
	if _, err := s.finish(cfg, false); err != nil {
		b.Fatal(err)
	}
}

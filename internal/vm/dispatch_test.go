package vm

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"algoprof/internal/mj/bytecode"
	"algoprof/internal/mj/compiler"
)

func compileT(t *testing.T, src string) *bytecode.Program {
	t.Helper()
	prog, err := compiler.CompileSource(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

// TestValueSize: a Value is a kind, an int and one reference word pair;
// every operand-stack slot, local, field and array element is one.
func TestValueSize(t *testing.T) {
	if s := unsafe.Sizeof(Value{}); s > 32 {
		t.Errorf("sizeof(Value) = %d bytes, want <= 32", s)
	}
}

// callsSrc runs readInput() iterations of a loop body that makes a
// static call, a virtual call and two builtin calls, all with arguments.
const callsSrc = `
class Acc {
  int total;
  int add(int x, int y) { total = total + x + y; return total; }
}
class Main {
  static int twice(int x, int y) { return x + y; }
  public static void main() {
    int n = readInput();
    Acc a = new Acc();
    int s = 0;
    for (int i = 0; i < n; i++) {
      s = s + twice(i, 1);
      s = s + a.add(i, 2);
      check(rand(10) >= 0);
    }
  }
}`

// constStrSrc pushes a constant string readInput() times.
const constStrSrc = `
class Main {
  public static void main() {
    int n = readInput();
    String t = null;
    for (int i = 0; i < n; i++) { t = "abc"; }
    check(t == "abc");
  }
}`

// allocsPerIteration runs prog at two loop counts and returns the
// allocation count the extra iterations added, per iteration: per-run
// set-up (the VM, its frame pool, caches) cancels out.
func allocsPerIteration(t *testing.T, prog *bytecode.Program) float64 {
	t.Helper()
	allocs := func(n int64) float64 {
		return testing.AllocsPerRun(5, func() {
			m := New(prog, Config{Seed: 1, Input: []int64{n}})
			if err := m.Run(); err != nil {
				t.Fatalf("run: %v", err)
			}
		})
	}
	const lo, hi = 100, 1100
	return (allocs(hi) - allocs(lo)) / (hi - lo)
}

// TestCallsAllocateNothing: calls and builtins take their arguments in
// place from the caller's operand stack.
func TestCallsAllocateNothing(t *testing.T) {
	if a := allocsPerIteration(t, compileT(t, callsSrc)); a != 0 {
		t.Errorf("call loop allocates %.2f times per iteration, want 0", a)
	}
}

// TestConstStringPushAllocatesNothing: a string literal is boxed once per
// instruction, not once per execution.
func TestConstStringPushAllocatesNothing(t *testing.T) {
	if a := allocsPerIteration(t, compileT(t, constStrSrc)); a != 0 {
		t.Errorf("constant-string loop allocates %.2f times per iteration, want 0", a)
	}
}

// spinSrc loops forever; only the budget or the watchdog stops it.
const spinSrc = `
class Main {
  public static void main() { int i = 0; while (true) { i = i + 1; } }
}`

// spawnSpinSrc spins on a spawned thread while main waits at the join,
// having executed far fewer than one watchdog interval itself.
const spawnSpinSrc = `
class Main {
  static void spin() { int i = 0; while (true) { i = i + 1; } }
  public static void main() { int h = spawn Main.spin(); join h; }
}`

// wantPolls is the instruction count at each of the first n watchdog
// polls: a full interval before the first, then one poll every
// watchdogInterval+1 guard checks.
func wantPolls(n int) []uint64 {
	out := make([]uint64, n)
	for k := range out {
		out[k] = uint64(k+1)*(watchdogInterval+1) - 1
	}
	return out
}

// TestBudgetExhaustsAtMaxSteps: the budget stops execution with exactly
// MaxSteps instructions executed, with or without a watchdog installed.
func TestBudgetExhaustsAtMaxSteps(t *testing.T) {
	prog := compileT(t, spinSrc)
	for _, withWatchdog := range []bool{false, true} {
		cfg := Config{Seed: 1, MaxSteps: 10_007}
		if withWatchdog {
			cfg.Watchdog = func() error { return nil }
		}
		m := New(prog, cfg)
		err := m.Run()
		if err == nil || !strings.Contains(err.Error(), "instruction budget exhausted (10007)") {
			t.Fatalf("watchdog=%v: Run = %v, want budget exhaustion", withWatchdog, err)
		}
		if m.InstrCount != 10_007 {
			t.Errorf("watchdog=%v: InstrCount = %d, want 10007", withWatchdog, m.InstrCount)
		}
	}
}

// TestWatchdogPollCadence: polls come at instruction counts 4096, 8193,
// 12290, ...; the budget check precedes the poll, so a budget ending on
// a poll's count exhausts without that poll.
func TestWatchdogPollCadence(t *testing.T) {
	prog := compileT(t, spinSrc)
	var m *VM
	var seen []uint64
	m = New(prog, Config{Seed: 1, MaxSteps: 3*(watchdogInterval+1) - 1, Watchdog: func() error {
		seen = append(seen, m.InstrCount)
		return nil
	}})
	err := m.Run()
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("Run = %v, want budget exhaustion", err)
	}
	if want := wantPolls(2); !slices.Equal(seen, want) {
		t.Errorf("polls at %v, want %v", seen, want)
	}

	seen = nil
	m = New(prog, Config{Seed: 1, Watchdog: func() error {
		seen = append(seen, m.InstrCount)
		if len(seen) == 5 {
			return &Halt{Reason: "test"}
		}
		return nil
	}})
	var halt *Halt
	if err := m.Run(); !errors.As(err, &halt) {
		t.Fatalf("Run = %v, want *Halt", err)
	}
	if want := wantPolls(5); !slices.Equal(seen, want) {
		t.Errorf("polls at %v, want %v", seen, want)
	}
	if m.InstrCount != seen[4] {
		t.Errorf("halted with InstrCount %d, want %d (the halting poll's count)", m.InstrCount, seen[4])
	}
}

// TestSpawnedThreadCadence: a spawned thread counts its own instructions
// against the same budget and polls the shared watchdog on the same
// cadence as the main thread.
func TestSpawnedThreadCadence(t *testing.T) {
	prog := compileT(t, spawnSpinSrc)
	var clock *uint64
	session := func(int) *ThreadSession {
		return &ThreadSession{BindClock: func(c *uint64) { clock = c }}
	}

	m := New(prog, Config{Seed: 1, MaxSteps: 10_007, SpawnSession: session})
	if err := m.Run(); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("Run = %v, want the thread's budget exhaustion", err)
	}
	if clock == nil || *clock != 10_007 {
		t.Fatalf("thread InstrCount = %v, want 10007", clock)
	}

	var seen []uint64
	m = New(prog, Config{Seed: 1, SpawnSession: session, Watchdog: func() error {
		seen = append(seen, *clock)
		if len(seen) == 4 {
			return &Halt{Reason: "test"}
		}
		return nil
	}})
	var halt *Halt
	if err := m.Run(); !errors.As(err, &halt) {
		t.Fatalf("Run = %v, want *Halt", err)
	}
	if want := wantPolls(4); !slices.Equal(seen, want) {
		t.Errorf("thread polls at %v, want %v", seen, want)
	}
}

// TestRuntimeErrorPositions pins the method and pc each failure reports:
// the pc of the instruction after the failing one, as the interpreter
// has always reported it.
func TestRuntimeErrorPositions(t *testing.T) {
	cases := []struct{ body, want string }{
		{`Node n = null; int v = n.v;`, "null dereference reading Node.v (at Main.main pc=4)"},
		{`Node n = null; n.get();`, "null dereference calling Node.get (at Main.main pc=4)"},
		{`int z = 0; int x = 1 / z;`, "division by zero (at Main.main pc=5)"},
		{`int[] a = new int[2]; a[5] = 1;`, "array index 5 out of bounds (len 2) (at Main.main pc=7)"},
		{`check(1 == 2);`, "check failed (at Main.main pc=4)"},
		{`Node n = new Node(); n.v = 3; int x = n.div(0);`, "division by zero (at Node.div pc=4)"},
		{`int x = Node.down(0);`, "stack overflow (depth 10000) (at Node.down pc=4)"},
	}
	for _, tc := range cases {
		src := `
class Node {
  int v;
  int get() { return v; }
  int div(int d) { return v / d; }
  static int down(int n) { return down(n + 1); }
}
class Main { public static void main() { ` + tc.body + ` } }`
		err := New(compileT(t, src), Config{Seed: 1}).Run()
		if err == nil || !strings.HasSuffix(err.Error(), tc.want) {
			t.Errorf("%s: Run = %v, want suffix %q", tc.body, err, tc.want)
		}
	}
}

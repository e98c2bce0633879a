package vm

import (
	"strings"
	"testing"

	"algoprof/internal/events"
	"algoprof/internal/mj/compiler"
)

// compileErr compiles src expecting a compile-time failure and returns it.
func compileErr(t *testing.T, src string) error {
	t.Helper()
	_, err := compiler.CompileSource(src)
	if err == nil {
		t.Fatal("want compile error, got none")
	}
	return err
}

func TestSpawnJoinBasics(t *testing.T) {
	m := run(t, `
class Main {
  public static void main() {
    int h = spawn Main.work(3);
    print("main");
    join h;
    print("done");
  }
  static void work(int n) {
    for (int i = 0; i < n; i++) { print("w" + i); }
  }
}`)
	// The join is the deterministic merge point: the child's whole stdout
	// folds in there, after everything main printed before the join.
	want := []string{"main", "w0", "w1", "w2", "done"}
	if len(m.Stdout) != len(want) {
		t.Fatalf("stdout %v, want %v", m.Stdout, want)
	}
	for i, w := range want {
		if m.Stdout[i] != w {
			t.Errorf("line %d: got %q, want %q", i, m.Stdout[i], w)
		}
	}
	if m.ThreadCount() != 1 {
		t.Errorf("ThreadCount = %d, want 1", m.ThreadCount())
	}
	if m.TotalInstructions() <= m.InstrCount {
		t.Errorf("TotalInstructions %d not greater than main-only %d", m.TotalInstructions(), m.InstrCount)
	}
}

func TestSpawnDeterministic(t *testing.T) {
	const src = `
class Main {
  public static void main() {
    int h1 = spawn Main.work(5);
    int h2 = spawn Main.work(5);
    join h1;
    join h2;
  }
  static void work(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) { s = s + rand(100); }
    print(s);
  }
}`
	first := run(t, src)
	second := run(t, src)
	if strings.Join(first.Stdout, ",") != strings.Join(second.Stdout, ",") {
		t.Errorf("two runs differ: %v vs %v", first.Stdout, second.Stdout)
	}
	if first.TotalInstructions() != second.TotalInstructions() {
		t.Errorf("instruction counts differ: %d vs %d", first.TotalInstructions(), second.TotalInstructions())
	}
	// Sibling threads draw from distinct tid-derived streams: with five
	// draws each, identical sums would mean the derivation collapsed.
	if first.Stdout[0] == first.Stdout[1] {
		t.Errorf("sibling threads produced identical random sums %v", first.Stdout)
	}
}

func TestUnjoinedThreadsFoldInTidOrder(t *testing.T) {
	m := run(t, `
class Main {
  public static void main() {
    int h2 = spawn Main.say(2);
    int h1 = spawn Main.say(1);
    print("main");
  }
  static void say(int n) { print("thread" + n); }
}`)
	// Run's end-of-run sweep folds unjoined threads by tid (spawn order),
	// not completion order: h2 has the smaller tid.
	want := []string{"main", "thread2", "thread1"}
	for i, w := range want {
		if m.Stdout[i] != w {
			t.Errorf("line %d: got %q, want %q (stdout %v)", i, m.Stdout[i], w, m.Stdout)
		}
	}
}

func TestThrownPropagatesToJoin(t *testing.T) {
	m := run(t, errorClasses+`
class Main {
  public static void main() {
    int h = spawn Main.boom();
    try {
      join h;
      print("unreachable");
    } catch (Error e) {
      print("caught " + e.code);
    }
  }
  static void boom() { throw new Error(9); }
}`)
	if m.Stdout[0] != "caught 9" {
		t.Errorf("got %v, want [caught 9]", m.Stdout)
	}
}

func TestUnjoinedThrownFailsRun(t *testing.T) {
	err := runErr(t, errorClasses+`
class Main {
  public static void main() {
    int h = spawn Main.boom();
  }
  static void boom() { throw new Error(9); }
}`)
	if !strings.Contains(err.Error(), "Error") {
		t.Errorf("unjoined thrown error = %v", err)
	}
}

func TestJoinErrors(t *testing.T) {
	for name, src := range map[string]string{
		"unknown-handle": `
class Main {
  public static void main() { join 12345; }
}`,
		"double-join": `
class Main {
  public static void main() {
    int h = spawn Main.work();
    join h;
    join h;
  }
  static void work() { }
}`,
	} {
		t.Run(name, func(t *testing.T) {
			err := runErr(t, src)
			if !strings.Contains(err.Error(), "join") && !strings.Contains(err.Error(), "already joined") {
				t.Errorf("error = %v", err)
			}
		})
	}
}

func TestSpawnDepthLimit(t *testing.T) {
	err := runErr(t, `
class Main {
  public static void main() {
    int h = spawn Main.nest(0);
    join h;
  }
  static void nest(int d) {
    if (d < 10) {
      int h = spawn Main.nest(d + 1);
      join h;
    }
  }
}`)
	if !strings.Contains(err.Error(), "nesting deeper") {
		t.Errorf("depth-limit error = %v", err)
	}
}

func TestSpawnOrdinalLimit(t *testing.T) {
	err := runErr(t, `
class Main {
  public static void main() {
    for (int i = 0; i < 300; i++) {
      int h = spawn Main.work();
      join h;
    }
  }
  static void work() { }
}`)
	if !strings.Contains(err.Error(), "spawned more than") {
		t.Errorf("ordinal-limit error = %v", err)
	}
}

func TestSpawnCompileErrors(t *testing.T) {
	for name, tc := range map[string]struct{ src, want string }{
		"non-call": {`
class Main {
  public static void main() { int h = spawn 42; }
}`, "spawn requires a method call"},
		"builtin": {`
class Main {
  public static void main() { int h = spawn print("x"); }
}`, "statically resolved"},
		"join-non-int": {`
class Main {
  public static void main() { join "nope"; }
}`, "int thread handle"},
	} {
		t.Run(name, func(t *testing.T) {
			err := compileErr(t, tc.src)
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestSpawnRequiresSessionProvider: a profiled run (Listener set) must
// refuse to spawn without a per-thread session provider — otherwise two
// threads would share one single-goroutine listener.
func TestSpawnRequiresSessionProvider(t *testing.T) {
	prog, err := compiler.CompileSource(`
class Main {
  public static void main() {
    int h = spawn Main.work();
    join h;
  }
  static void work() { }
}`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := New(prog, Config{Seed: 1, Listener: events.NopListener{}})
	err = m.Run()
	if err == nil || !strings.Contains(err.Error(), "per-thread session provider") {
		t.Errorf("profiled spawn without provider: err = %v", err)
	}
}

package bbprof

import (
	"strings"
	"testing"

	"algoprof/internal/fit"
	"algoprof/internal/mj/bytecode"
	"algoprof/internal/mj/compiler"
	"algoprof/internal/vm"
)

// quadraticSrc runs a quadratic nest over a size fed via readInput.
const quadraticSrc = `
class Main {
  public static void main() {
    int n = readInput();
    int s = 0;
    for (int i = 0; i < n; i++) {
      for (int j = 0; j < i; j++) { s = s + 1; }
    }
    writeOutput(s);
  }
}`

func runOnce(t *testing.T, prog *bytecode.Program, p *Profiler, n int64) {
	t.Helper()
	m := vm.New(prog, vm.Config{InstrHook: p.Hook, Input: []int64{n}})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBlockCountsGrowWithWork(t *testing.T) {
	prog, err := compiler.CompileSource(quadraticSrc)
	if err != nil {
		t.Fatal(err)
	}
	p := New(prog)
	runOnce(t, prog, p, 10)
	r1 := p.Snapshot(10)
	p.Reset()
	runOnce(t, prog, p, 40)
	r2 := p.Snapshot(40)

	var max1, max2 int64
	for _, c := range r1.Counts {
		if c > max1 {
			max1 = c
		}
	}
	for _, c := range r2.Counts {
		if c > max2 {
			max2 = c
		}
	}
	// Inner block executes ~n²/2 times: 45 vs 780.
	if max1 < 40 || max2 < 700 {
		t.Errorf("hot block counts %d / %d, want ≥45 / ≥780-ish", max1, max2)
	}
}

func TestFitAllFindsQuadraticBlock(t *testing.T) {
	prog, err := compiler.CompileSource(quadraticSrc)
	if err != nil {
		t.Fatal(err)
	}
	p := New(prog)
	var runs []Run
	for _, n := range []int64{5, 10, 20, 40, 60, 80} {
		p.Reset()
		runOnce(t, prog, p, n)
		runs = append(runs, p.Snapshot(int(n)))
	}
	fits := FitAll(runs)
	if len(fits) == 0 {
		t.Fatal("no fitted locations")
	}
	// The steepest-growing location must be quadratic: that is the
	// Goldsmith result for this program.
	top := fits[0]
	if top.Fit.Model != fit.Quadratic {
		t.Errorf("top block model = %v, want Quadratic", top.Fit.Model)
	}
	// And some location must be linear (the outer loop header).
	foundLinear := false
	for _, lf := range fits {
		if lf.Fit.Model == fit.Linear {
			foundLinear = true
		}
	}
	if !foundLinear {
		t.Error("no linear block found (outer loop header should be linear)")
	}
}

func TestRenderTopK(t *testing.T) {
	prog, err := compiler.CompileSource(quadraticSrc)
	if err != nil {
		t.Fatal(err)
	}
	p := New(prog)
	var runs []Run
	for _, n := range []int64{5, 20, 50} {
		p.Reset()
		runOnce(t, prog, p, n)
		runs = append(runs, p.Snapshot(int(n)))
	}
	out := Render(prog, FitAll(runs), 3)
	if !strings.Contains(out, "Main.main block") {
		t.Errorf("render output:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 3 {
		t.Errorf("want exactly 3 lines:\n%s", out)
	}
}

func TestResetClearsCounts(t *testing.T) {
	prog, err := compiler.CompileSource(quadraticSrc)
	if err != nil {
		t.Fatal(err)
	}
	p := New(prog)
	runOnce(t, prog, p, 10)
	p.Reset()
	r := p.Snapshot(0)
	if len(r.Counts) != 0 {
		t.Errorf("counts after reset: %v", r.Counts)
	}
}

// TestHookIgnoresUnknownTicks: a tick naming a method or pc the program
// lacks, as only a damaged trace's replay can, counts nothing and does
// not panic.
func TestHookIgnoresUnknownTicks(t *testing.T) {
	prog, err := compiler.CompileSource(quadraticSrc)
	if err != nil {
		t.Fatal(err)
	}
	p := New(prog)
	main := prog.MainID
	for _, tick := range [][2]int{{-1, 0}, {len(prog.Funcs), 0}, {999, 0}, {main, -1}, {main, len(prog.Funcs[main].Code)}} {
		p.Hook(tick[0], tick[1])
	}
	if r := p.Snapshot(0); len(r.Counts) != 0 {
		t.Errorf("unknown ticks counted: %v", r.Counts)
	}
}

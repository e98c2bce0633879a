package algoprof_test

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"algoprof"
	"algoprof/internal/trace"
)

const quickstartSrc = `
class Node { Node next; int v; Node(int v) { this.v = v; } }
class Main {
  public static void main() {
    for (int size = 2; size <= 32; size = size + 2) {
      Node head = build(size);
      int n = count(head);
      check(n == size);
    }
  }
  static Node build(int size) {
    Node head = null;
    for (int i = 0; i < size; i++) {
      Node x = new Node(rand(100));
      x.next = head;
      head = x;
    }
    return head;
  }
  static int count(Node head) {
    int n = 0;
    Node cur = head;
    while (cur != null) { n++; cur = cur.next; }
    return n;
  }
}`

func TestRunQuickstart(t *testing.T) {
	prof, err := algoprof.Run(quickstartSrc, algoprof.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Algorithms) < 3 {
		t.Fatalf("found %d algorithms, want at least 3 (harness, build, count)", len(prof.Algorithms))
	}
	count := prof.Find("Main.count/loop1")
	if count == nil {
		t.Fatal("count algorithm missing")
	}
	if !strings.Contains(count.Description, "Traversal of a Node-based recursive structure") {
		t.Errorf("count description = %q", count.Description)
	}
	if len(count.CostFunctions) != 1 {
		t.Fatalf("count has %d cost functions", len(count.CostFunctions))
	}
	cf := count.CostFunctions[0]
	if cf.Model != "n" {
		t.Errorf("count model = %s, want n", cf.Model)
	}
	if cf.R2 < 0.99 {
		t.Errorf("count fit R2 = %f", cf.R2)
	}
	if len(cf.Points) == 0 {
		t.Error("no points in cost function")
	}
}

func TestRunCompileError(t *testing.T) {
	_, err := algoprof.Run("class {", algoprof.Config{})
	if err == nil {
		t.Fatal("want compile error")
	}
}

func TestRunRuntimeError(t *testing.T) {
	_, err := algoprof.Run(`class Main { public static void main() { check(false); } }`, algoprof.Config{})
	if err == nil || !strings.Contains(err.Error(), "check failed") {
		t.Fatalf("want check failure, got %v", err)
	}
}

// TestUnknownModeRejected: every entry point refuses a mode it does not
// know, rather than silently profiling in events mode.
func TestUnknownModeRejected(t *testing.T) {
	var buf bytes.Buffer
	if _, err := algoprof.Record(quickstartSrc, algoprof.Config{}, &buf, trace.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	bogus := algoprof.Config{Mode: "bogus"}
	for name, run := range map[string]func() (*algoprof.Profile, error){
		"Run": func() (*algoprof.Profile, error) {
			return algoprof.Run(quickstartSrc, bogus)
		},
		"Record": func() (*algoprof.Profile, error) {
			return algoprof.Record(quickstartSrc, bogus, io.Discard, trace.WriterOptions{})
		},
		"ReplayProgram": func() (*algoprof.Profile, error) {
			return algoprof.ReplayProgram(compile(t, quickstartSrc), bogus, r)
		},
	} {
		if _, err := run(); err == nil || !strings.Contains(err.Error(), `unknown mode "bogus"`) {
			t.Errorf("%s with mode %q: err = %v, want unknown mode", name, bogus.Mode, err)
		}
	}
}

func TestTreeRendering(t *testing.T) {
	prof, err := algoprof.Run(quickstartSrc, algoprof.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tree := prof.Tree()
	for _, want := range []string{
		"Program",
		"Main.main/loop1",
		"Main.build/loop1",
		"Main.count/loop1",
		"algorithm #",
		"steps ≈",
	} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
}

func TestPlotAlgorithm(t *testing.T) {
	prof, err := algoprof.Run(quickstartSrc, algoprof.Config{})
	if err != nil {
		t.Fatal(err)
	}
	plot, err := prof.PlotAlgorithm("Main.count/loop1", "", 48, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plot, "fit:") || !strings.Contains(plot, "*") {
		t.Errorf("plot missing fit:\n%s", plot)
	}
	if _, err := prof.PlotAlgorithm("no/such", "", 48, 12); err == nil {
		t.Error("want error for unknown algorithm")
	}
}

func TestStdoutAndOutputCapture(t *testing.T) {
	prof, err := algoprof.Run(`
class Main {
  public static void main() {
    print("hello");
    writeOutput(41 + 1);
  }
}`, algoprof.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Stdout) != 1 || prof.Stdout[0] != "hello" {
		t.Errorf("stdout = %v", prof.Stdout)
	}
	if len(prof.Output) != 1 || prof.Output[0] != "42" {
		t.Errorf("output = %v", prof.Output)
	}
	if prof.Instructions == 0 {
		t.Error("instruction count missing")
	}
}

func TestSeedChangesRandomness(t *testing.T) {
	src := `
class Main {
  public static void main() {
    for (int i = 0; i < 3; i++) { writeOutput(rand(1000)); }
  }
}`
	p1, err := algoprof.Run(src, algoprof.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := algoprof.Run(src, algoprof.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(p1.Output, ",") == strings.Join(p2.Output, ",") {
		t.Error("different seeds should change rand output")
	}
	p3, err := algoprof.Run(src, algoprof.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(p1.Output, ",") != strings.Join(p3.Output, ",") {
		t.Error("same seed must reproduce output")
	}
}

func TestInputFeed(t *testing.T) {
	prof, err := algoprof.Run(`
class Main {
  public static void main() {
    writeOutput(readInput() + readInput());
  }
}`, algoprof.Config{Input: []int64{40, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Output) != 1 || prof.Output[0] != "42" {
		t.Errorf("output = %v", prof.Output)
	}
}

func TestAlgorithmsSortedByCost(t *testing.T) {
	prof, err := algoprof.Run(quickstartSrc, algoprof.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(prof.Algorithms); i++ {
		if prof.Algorithms[i-1].TotalSteps < prof.Algorithms[i].TotalSteps {
			t.Fatalf("algorithms not sorted by TotalSteps at %d", i)
		}
	}
}

func TestMaxStepsBudget(t *testing.T) {
	_, err := algoprof.Run(`
class Main { public static void main() { while (true) { } } }`,
		algoprof.Config{MaxSteps: 100000})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("want budget error, got %v", err)
	}
}

func TestJSONExport(t *testing.T) {
	prof, err := algoprof.Run(quickstartSrc, algoprof.Config{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := prof.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Algorithms []struct {
			Name          string `json:"Name"`
			Description   string `json:"Description"`
			CostFunctions []struct {
				Model string  `json:"Model"`
				Coeff float64 `json:"Coeff"`
			} `json:"CostFunctions"`
		} `json:"algorithms"`
		Instructions uint64 `json:"instructions"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	if len(decoded.Algorithms) == 0 || decoded.Instructions == 0 {
		t.Errorf("decoded: %+v", decoded)
	}
	found := false
	for _, a := range decoded.Algorithms {
		if a.Name == "Main.count/loop1" && len(a.CostFunctions) == 1 && a.CostFunctions[0].Model == "n" {
			found = true
		}
	}
	if !found {
		t.Errorf("count algorithm not round-tripped:\n%s", data)
	}
}

func TestGroupStrategyConfig(t *testing.T) {
	src := `
class Main {
  public static void main() {
    int[][] m = new int[5][5];
    for (int i = 0; i < 5; i++) {
      for (int j = 0; j < 5; j++) { m[i][j] = i + j; }
    }
  }
}`
	shared, err := algoprof.Run(src, algoprof.Config{})
	if err != nil {
		t.Fatal(err)
	}
	same, err := algoprof.Run(src, algoprof.Config{GroupStrategy: algoprof.SameMethod})
	if err != nil {
		t.Fatal(err)
	}
	outerShared := shared.Find("Main.main/loop1")
	if outerShared == nil || len(outerShared.Nodes) != 1 {
		t.Errorf("shared-input: outer loop should be alone, got %+v", outerShared)
	}
	outerSame := same.Find("Main.main/loop1")
	if outerSame == nil || len(outerSame.Nodes) != 2 {
		t.Errorf("same-method: nest should group, got %+v", outerSame)
	}
}

func TestCriterionConfig(t *testing.T) {
	// Under SameType, the fresh per-iteration lists unify into one input.
	src := `
class Node { Node next; }
class Main {
  public static void main() {
    for (int r = 0; r < 4; r++) {
      Node head = null;
      for (int i = 0; i < 6; i++) {
        Node x = new Node();
        x.next = head;
        head = x;
      }
    }
  }
}`
	some, err := algoprof.Run(src, algoprof.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sameType, err := algoprof.Run(src, algoprof.Config{Criterion: algoprof.SameType})
	if err != nil {
		t.Fatal(err)
	}
	pSome, _ := some.Raw()
	pType, _ := sameType.Raw()
	if got := len(pSome.Registry().CanonicalIDs()); got != 4 {
		t.Errorf("some-elements inputs = %d, want 4", got)
	}
	if got := len(pType.Registry().CanonicalIDs()); got != 1 {
		t.Errorf("same-type inputs = %d, want 1", got)
	}
}

func TestSampleEveryConfig(t *testing.T) {
	src := `
class Main {
  static void work(int n) { for (int i = 0; i < n; i++) { } }
  public static void main() {
    for (int r = 0; r < 20; r++) { work(r); }
  }
}`
	full, err := algoprof.Run(src, algoprof.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := algoprof.Run(src, algoprof.Config{SampleEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	fw := full.Find("Main.work/loop1")
	sw := sampled.Find("Main.work/loop1")
	if fw.Invocations != 20 || sw.Invocations != 5 {
		t.Errorf("invocations full=%d sampled=%d, want 20/5", fw.Invocations, sw.Invocations)
	}
}

func TestBinarySearchLogarithmicCostFunction(t *testing.T) {
	// Binary search over a sorted array: the per-query cost function must
	// come out logarithmic — exercising the log-n model end to end.
	src := `
class Main {
  public static void main() {
    for (int size = 8; size <= 512; size = size * 2) {
      int[] a = new int[size];
      for (int i = 0; i < size; i++) { a[i] = i * 3; }
      for (int q = 0; q < 6; q++) {
        int idx = search(a, rand(size * 3));
        check(idx >= 0 - 1);
      }
    }
  }
  static int search(int[] a, int key) {
    int lo = 0;
    int hi = a.length - 1;
    while (lo <= hi) {
      int mid = (lo + hi) / 2;
      int v = a[mid];
      if (v == key) { return mid; }
      if (v < key) { lo = mid + 1; }
      else { hi = mid - 1; }
    }
    return -1;
  }
}`
	prof, err := algoprof.Run(src, algoprof.Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	search := prof.Find("Main.search/loop1")
	if search == nil {
		t.Fatal("no search algorithm")
	}
	if len(search.CostFunctions) == 0 {
		t.Fatal("no cost function for binary search")
	}
	cf := search.CostFunctions[0]
	if cf.Model != "log n" {
		t.Errorf("binary search model = %s, want log n", cf.Model)
	}
	if !strings.Contains(search.Description, "Traversal") &&
		!strings.Contains(search.Description, "array") {
		t.Logf("description: %q", search.Description)
	}
}

func TestOperationsBreakdown(t *testing.T) {
	prof, err := algoprof.Run(quickstartSrc, algoprof.Config{})
	if err != nil {
		t.Fatal(err)
	}
	build := prof.Find("Main.build/loop1")
	if build == nil {
		t.Fatal("no build algorithm")
	}
	// 16 sizes (2..32 step 2): Σ size = 272 appends.
	if build.Operations["NEW"] != 272 {
		t.Errorf("NEW = %d, want 272", build.Operations["NEW"])
	}
	if build.Operations["PUT"] != 272 {
		t.Errorf("PUT = %d, want 272 (one next-link write per node)", build.Operations["PUT"])
	}
	if build.Operations["STEP"] != 272 {
		t.Errorf("STEP = %d, want 272", build.Operations["STEP"])
	}
	count := prof.Find("Main.count/loop1")
	if count.Operations["GET"] != 272 {
		t.Errorf("count GET = %d, want 272", count.Operations["GET"])
	}
	if count.Operations["PUT"] != 0 {
		t.Errorf("count PUT = %d, want 0 (pure traversal)", count.Operations["PUT"])
	}
}

func TestProfileDeterminism(t *testing.T) {
	// Same program + same seed => byte-identical JSON profile and tree.
	run := func() (string, string) {
		prof, err := algoprof.Run(quickstartSrc, algoprof.Config{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		data, err := prof.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(data), prof.Tree()
	}
	j1, t1 := run()
	j2, t2 := run()
	if j1 != j2 {
		t.Error("JSON profiles differ across identical runs")
	}
	if t1 != t2 {
		t.Error("rendered trees differ across identical runs")
	}
}

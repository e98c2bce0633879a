package core

import (
	"testing"

	"algoprof/internal/instrument"
	"algoprof/internal/mj/compiler"
	"algoprof/internal/snapshot"
	"algoprof/internal/vm"
)

// profile compiles, instruments and runs src under the profiler.
func profile(t *testing.T, src string, opts Options) *Profiler {
	t.Helper()
	prog, err := compiler.CompileSource(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ins, err := instrument.Instrument(prog, instrument.Optimized)
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	p := NewProfiler(ins, opts)
	m := vm.New(ins.Prog, vm.Config{Listener: p, Plan: ins.Plan, Seed: 42})
	if err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	p.Finish()
	if errs := p.Errors(); len(errs) != 0 {
		t.Fatalf("profiler errors: %v", errs)
	}
	return p
}

// findNode walks the tree for a node whose name (per NodeName) matches.
func findNode(p *Profiler, name string) *Node {
	var found *Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if p.NodeName(n) == name {
			found = n
			return
		}
		for _, c := range n.Children {
			walk(c)
			if found != nil {
				return
			}
		}
	}
	walk(p.Root())
	return found
}

func countNodes(n *Node) int {
	total := 1
	for _, c := range n.Children {
		total += countNodes(c)
	}
	return total
}

func TestSimpleLoopTree(t *testing.T) {
	p := profile(t, `
class Main {
  public static void main() {
    for (int i = 0; i < 7; i++) { }
  }
}`, Options{})
	root := p.Root()
	if len(root.Children) != 1 {
		t.Fatalf("root has %d children, want 1", len(root.Children))
	}
	loop := root.Children[0]
	if loop.Kind != KindLoop {
		t.Fatalf("child kind %v", loop.Kind)
	}
	if loop.Invocations() != 1 {
		t.Errorf("loop invocations = %d, want 1", loop.Invocations())
	}
	if got := loop.TotalCost(OpStep); got != 7 {
		t.Errorf("steps = %d, want 7", got)
	}
}

func TestNestedLoopInvocationsAndSteps(t *testing.T) {
	// Listing 3: outer 3 iterations; inner runs 0+1+2 = 3 steps across 3
	// invocations.
	p := profile(t, `
class Main {
  public static void main() {
    for (int o = 0; o < 3; o++) {
      for (int i = 0; i < o; i++) { }
    }
  }
}`, Options{})
	outer := p.Root().Children[0]
	if outer.TotalCost(OpStep) != 3 {
		t.Errorf("outer steps = %d, want 3", outer.TotalCost(OpStep))
	}
	if len(outer.Children) != 1 {
		t.Fatalf("outer children = %d", len(outer.Children))
	}
	inner := outer.Children[0]
	if inner.Invocations() != 3 {
		t.Errorf("inner invocations = %d, want 3", inner.Invocations())
	}
	if inner.TotalCost(OpStep) != 3 {
		t.Errorf("inner steps = %d, want 0+1+2=3", inner.TotalCost(OpStep))
	}
	// The outer loop runs one invocation (index 0); every inner invocation
	// belongs to it.
	for i, inv := range inner.History {
		if inv.ParentIndex != 0 {
			t.Errorf("inner invocation %d has parent index %d, want 0", i, inv.ParentIndex)
		}
	}
}

func TestLoopsInCalledMethodNestUnderCallSiteLoop(t *testing.T) {
	// Loops of non-recursive callees appear as children of the caller's
	// current loop node (methods themselves are not repetition nodes).
	p := profile(t, `
class Main {
  static void work(int n) {
    for (int i = 0; i < n; i++) { }
  }
  public static void main() {
    for (int r = 0; r < 4; r++) { work(r); }
  }
}`, Options{})
	outer := p.Root().Children[0]
	if len(outer.Children) != 1 {
		t.Fatalf("outer has %d children, want 1 (work's loop)", len(outer.Children))
	}
	workLoop := outer.Children[0]
	if workLoop.Invocations() != 4 {
		t.Errorf("work loop invoked %d times, want 4", workLoop.Invocations())
	}
	if workLoop.TotalCost(OpStep) != 0+1+2+3 {
		t.Errorf("work loop steps = %d, want 6", workLoop.TotalCost(OpStep))
	}
}

func TestRecursionFolding(t *testing.T) {
	p := profile(t, `
class Main {
  static int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
  public static void main() {
    int a = fact(5);
    int b = fact(3);
  }
}`, Options{})
	rec := findNode(p, "Main.fact/recursion")
	if rec == nil {
		t.Fatal("no recursion node for fact")
	}
	if rec.Invocations() != 2 {
		t.Errorf("fact invocations = %d, want 2 (two outermost calls)", rec.Invocations())
	}
	// fact(5): 4 recursive re-entries; fact(3): 2.
	if rec.History[0].Cost(CostKey{Op: OpStep, Input: NoInput}) != 4 {
		t.Errorf("fact(5) steps = %d, want 4", rec.History[0].Cost(CostKey{Op: OpStep, Input: NoInput}))
	}
	if rec.History[1].Cost(CostKey{Op: OpStep, Input: NoInput}) != 2 {
		t.Errorf("fact(3) steps = %d, want 2", rec.History[1].Cost(CostKey{Op: OpStep, Input: NoInput}))
	}
	// Folding: the recursion node has no recursion-node child for itself.
	for _, c := range rec.Children {
		if c.Kind == KindRecursion && c.ID == rec.ID {
			t.Error("recursive calls must fold into the header node")
		}
	}
}

func TestMutualRecursionFoldsIntoHeader(t *testing.T) {
	p := profile(t, `
class Main {
  static boolean isEven(int n) { if (n == 0) { return true; } return isOdd(n - 1); }
  static boolean isOdd(int n) { if (n == 0) { return false; } return isEven(n - 1); }
  public static void main() { boolean b = isEven(6); }
}`, Options{})
	even := findNode(p, "Main.isEven/recursion")
	if even == nil {
		t.Fatal("no node for isEven")
	}
	// isEven re-entered 3 times (n=6,4,2 then 0 returns true... entries at
	// 6 (initial), 4, 2, 0 => 3 re-entries).
	if got := even.TotalCost(OpStep); got != 3 {
		t.Errorf("isEven steps = %d, want 3", got)
	}
	if even.Invocations() != 1 {
		t.Errorf("isEven invocations = %d, want 1", even.Invocations())
	}
}

func TestRecursionWithInnerLoop(t *testing.T) {
	// A loop inside a recursive method: the loop node is a child of the
	// recursion node and its invocations nest correctly even across
	// recursion depths.
	p := profile(t, `
class Main {
  static void rec(int n) {
    if (n == 0) { return; }
    for (int i = 0; i < n; i++) { }
    rec(n - 1);
  }
  public static void main() { rec(3); }
}`, Options{})
	rec := findNode(p, "Main.rec/recursion")
	if rec == nil {
		t.Fatal("no recursion node")
	}
	if len(rec.Children) != 1 || rec.Children[0].Kind != KindLoop {
		t.Fatalf("recursion node children: %d", len(rec.Children))
	}
	loop := rec.Children[0]
	if loop.Invocations() != 3 {
		t.Errorf("loop invocations = %d, want 3", loop.Invocations())
	}
	if loop.TotalCost(OpStep) != 3+2+1 {
		t.Errorf("loop steps = %d, want 6", loop.TotalCost(OpStep))
	}
}

func TestStructureInputIdentifiedAndSized(t *testing.T) {
	p := profile(t, `
class Node { Node next; int v; }
class Main {
  public static void main() {
    Node head = null;
    for (int i = 0; i < 8; i++) {
      Node n = new Node();
      n.next = head;
      head = n;
    }
    int count = 0;
    Node cur = head;
    while (cur != null) { cur = cur.next; count++; }
  }
}`, Options{})
	reg := p.Registry()
	ids := reg.CanonicalIDs()
	if len(ids) != 1 {
		t.Fatalf("canonical inputs = %v, want exactly 1 (one list)", ids)
	}
	in := reg.Input(ids[0])
	if in.MaxSize != 8 {
		t.Errorf("input MaxSize = %d, want 8", in.MaxSize)
	}
	if in.MaxTypeCounts["Node"] != 8 {
		t.Errorf("type counts = %v", in.MaxTypeCounts)
	}

	// The traversal loop's invocation must record size 8 and 8 GET costs.
	loops := p.Root().Children
	if len(loops) != 2 {
		t.Fatalf("root children = %d, want 2 loops", len(loops))
	}
	trav := loops[1]
	inv := trav.History[0]
	canonical := reg.Find(ids[0])
	foundSize := 0
	for _, e := range inv.Sizes {
		if reg.Find(int(e.Input)) == canonical && int(e.Size) > foundSize {
			foundSize = int(e.Size)
		}
	}
	if foundSize != 8 {
		t.Errorf("traversal invocation size = %d, want 8 (sizes=%v)", foundSize, inv.Sizes)
	}
	var gets int64
	for k, v := range inv.Costs() {
		if k.Op == OpGet && k.Type == "" {
			gets += v
		}
	}
	if gets != 8 {
		t.Errorf("traversal GETs = %d, want 8", gets)
	}
}

func TestConstructionDeferredIdentification(t *testing.T) {
	// Listing 4: during construction the first access sees size 1; the
	// deferred exit snapshot must measure the full structure.
	p := profile(t, `
class Node { Node next; }
class Main {
  public static void main() {
    Node list = null;
    for (int i = 0; i < 10; i++) {
      Node head = new Node();
      head.next = list;
      list = head;
    }
  }
}`, Options{Identify: DeferredIdentify})
	reg := p.Registry()
	ids := reg.CanonicalIDs()
	if len(ids) != 1 {
		t.Fatalf("inputs = %v, want 1", ids)
	}
	if got := reg.Input(ids[0]).MaxSize; got != 10 {
		t.Errorf("constructed list MaxSize = %d, want 10", got)
	}
	// The construction loop's PUT costs must be attributed to the input.
	loop := p.Root().Children[0]
	inv := loop.History[0]
	var puts int64
	for k, v := range inv.Costs() {
		if k.Op == OpPut && k.Type == "" && k.Input != NoInput {
			puts += v
		}
	}
	if puts != 10 {
		t.Errorf("PUTs attributed to input = %d, want 10", puts)
	}
}

func TestConstructionEagerIdentification(t *testing.T) {
	p := profile(t, `
class Node { Node next; }
class Main {
  public static void main() {
    Node list = null;
    for (int i = 0; i < 10; i++) {
      Node head = new Node();
      head.next = list;
      list = head;
    }
  }
}`, Options{Identify: EagerIdentify})
	ids := p.Registry().CanonicalIDs()
	if len(ids) != 1 {
		t.Fatalf("inputs = %v, want 1", ids)
	}
	if got := p.Registry().Input(ids[0]).MaxSize; got != 10 {
		t.Errorf("MaxSize = %d, want 10", got)
	}
}

func TestRecursiveConstructionMeasuredAtExit(t *testing.T) {
	// Listing 4's recursive variant: each PUTFIELD sees only the suffix;
	// the outermost exit must measure the whole list.
	p := profile(t, `
class Node { Node next; }
class Main {
  static Node construct(int size) {
    if (size == 0) { return null; }
    Node list = construct(size - 1);
    Node head = new Node();
    head.next = list;
    return head;
  }
  public static void main() { Node l = construct(12); }
}`, Options{})
	ids := p.Registry().CanonicalIDs()
	if len(ids) != 1 {
		t.Fatalf("inputs = %v, want 1", ids)
	}
	if got := p.Registry().Input(ids[0]).MaxSize; got != 12 {
		t.Errorf("MaxSize = %d, want 12", got)
	}
	rec := findNode(p, "Main.construct/recursion")
	if rec == nil {
		t.Fatal("no recursion node")
	}
	if rec.TotalCost(OpStep) != 12 {
		t.Errorf("construct steps = %d, want 12", rec.TotalCost(OpStep))
	}
	if rec.TotalCost(OpNew) != 12 {
		t.Errorf("NEW count = %d, want 12", rec.TotalCost(OpNew))
	}
}

func TestArrayInputCapacity(t *testing.T) {
	p := profile(t, `
class Main {
  public static void main() {
    int[] a = new int[100];
    for (int i = 0; i < 10; i++) { a[i] = i * 2; }
  }
}`, Options{SizeStrategy: snapshot.Capacity})
	ids := p.Registry().CanonicalIDs()
	if len(ids) != 1 {
		t.Fatalf("inputs = %v", ids)
	}
	if got := p.Registry().Input(ids[0]).MaxSize; got != 100 {
		t.Errorf("capacity strategy MaxSize = %d, want 100", got)
	}
	loop := p.Root().Children[0]
	if got := loop.TotalCost(OpArrStore); got != 10 {
		t.Errorf("array stores = %d, want 10", got)
	}
}

func TestArrayInputUniqueElements(t *testing.T) {
	// Listing 4's partially used array: unique strategy sees ~10 used
	// slots, not the capacity of 1000.
	p := profile(t, `
class Main {
  public static void main() {
    int[] values = new int[1000];
    for (int i = 0; i < 10; i++) { values[i] = i * 2; }
  }
}`, Options{SizeStrategy: snapshot.UniqueElements})
	ids := p.Registry().CanonicalIDs()
	in := p.Registry().Input(ids[0])
	if in.MaxSize != 10 {
		t.Errorf("unique strategy MaxSize = %d, want 10 (values 0,2,...,18)", in.MaxSize)
	}
}

func TestAllocatedByTracksConstructingNode(t *testing.T) {
	p := profile(t, `
class Node { Node next; }
class Main {
  public static void main() {
    Node head = null;
    for (int i = 0; i < 3; i++) {
      Node n = new Node();
      n.next = head;
      head = n;
    }
  }
}`, Options{})
	loop := p.Root().Children[0]
	found := 0
	p.EachAllocation(func(_ uint64, n *Node) {
		if n == loop {
			found++
		}
	})
	if found != 3 {
		t.Errorf("3 nodes allocated by the loop, found %d", found)
	}
}

func TestIOCosts(t *testing.T) {
	p := profile(t, `
class Main {
  public static void main() {
    for (int i = 0; i < 5; i++) {
      int x = readInput();
      writeOutput(x * 2);
    }
  }
}`, Options{})
	loop := p.Root().Children[0]
	if got := loop.TotalCost(OpIn); got != 5 {
		t.Errorf("IN = %d, want 5", got)
	}
	if got := loop.TotalCost(OpOut); got != 5 {
		t.Errorf("OUT = %d, want 5", got)
	}
}

func TestInsertionSortTreeShape(t *testing.T) {
	// The paper's running example (scaled down): the repetition tree must
	// contain the five loops of Figure 3 in the right nesting.
	p := profile(t, runningExampleSrc(20, 2), Options{})
	root := p.Root()
	// Figure 3: measure outer loop > measure inner loop > {constructRandom
	// loop, sort outer loop > sort inner loop}.
	if len(root.Children) != 1 {
		t.Fatalf("root children = %d, want 1 (measure outer)", len(root.Children))
	}
	measureOuter := root.Children[0]
	if len(measureOuter.Children) != 1 {
		t.Fatalf("measure outer children = %d, want 1 (measure inner)", len(measureOuter.Children))
	}
	measureInner := measureOuter.Children[0]
	if len(measureInner.Children) != 2 {
		t.Fatalf("measure inner children = %d, want 2 (construct + sort outer)", len(measureInner.Children))
	}
	total := countNodes(root)
	if total != 6 { // root + 5 loops
		t.Errorf("tree has %d nodes, want 6 (root + 5 loops, Figure 3)", total)
	}

	sortOuter := measureInner.Children[1]
	if len(sortOuter.Children) != 1 {
		t.Fatalf("sort outer children = %d, want 1 (sort inner)", len(sortOuter.Children))
	}
	// Sort outer is entered once per (size, rep) except for sizes 0 and 1,
	// where sort() returns before the loop: (20-2) sizes × 2 reps.
	if got := sortOuter.Invocations(); got != 36 {
		t.Errorf("sort outer invocations = %d, want 36", got)
	}
}

// runningExampleSrc generates the paper's Listing 1+2 in MJ with a
// configurable sweep.
func runningExampleSrc(maxSize, reps int) string {
	return `
class List {
  Node head; Node tail;
  public void sort() {
    if (head == null || head.next == null) { return; }
    Node firstUnsorted = head.next;
    while (firstUnsorted != null) {
      Node target = firstUnsorted;
      Node nextUnsorted = firstUnsorted.next;
      while (target.prev != null && target.prev.value > target.value) {
        Node candidate = target.prev;
        Node pred = candidate.prev;
        Node succ = target.next;
        if (pred != null) { pred.next = target; } else { head = target; }
        target.prev = pred;
        if (succ != null) { succ.prev = candidate; } else { tail = candidate; }
        candidate.next = succ;
        target.next = candidate;
        candidate.prev = target;
      }
      firstUnsorted = nextUnsorted;
    }
  }
  public void append(int value) {
    Node node = new Node(value);
    if (tail == null) { tail = node; head = tail; }
    else { tail.next = node; node.prev = tail; tail = tail.next; }
  }
}
class Node {
  Node prev; Node next; int value;
  Node(int value) { this.value = value; }
}
class Main {
  public static void main() {
    for (int size = 0; size < ` + itoa(maxSize) + `; size++) {
      for (int i = 0; i < ` + itoa(reps) + `; i++) {
        List list = new List();
        constructRandom(list, size);
        list.sort();
      }
    }
  }
  static void constructRandom(List list, int size) {
    for (int i = 0; i < size; i++) { list.append(rand(size)); }
  }
}`
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestInsertionSortQuadraticSteps(t *testing.T) {
	// Random input: total steps of the sort inner loop over one sort of
	// size n is the number of inversions ≈ n²/4.
	p := profile(t, runningExampleSrc(30, 1), Options{})
	sortOuter := p.Root().Children[0].Children[0].Children[1]
	sortInner := sortOuter.Children[0]

	// Group inner invocations by their parent (sort outer) invocation and
	// sum steps per sort call.
	stepsPerSort := map[int]int64{}
	for _, inv := range sortInner.History {
		stepsPerSort[inv.ParentIndex] += inv.Cost(CostKey{Op: OpStep, Input: NoInput})
	}
	// The largest sort (n=29) must do more inner steps than a linear bound
	// would allow for random input, and fewer than the worst case.
	last := stepsPerSort[sortOuter.Invocations()-1]
	n := int64(29)
	if last <= n/2 {
		t.Errorf("sort of %d elements did only %d inner steps; expected Θ(n²/4)", n, last)
	}
	if last > n*(n-1)/2 {
		t.Errorf("inner steps %d exceed the inversion upper bound %d", last, n*(n-1)/2)
	}
}

func TestProfilerFinishIsIdempotentEnough(t *testing.T) {
	p := profile(t, `class Main { public static void main() { } }`, Options{})
	if p.Root().Invocations() != 1 {
		t.Errorf("root invocations = %d, want 1 after Finish", p.Root().Invocations())
	}
}

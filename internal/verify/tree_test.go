package verify

import (
	"strings"
	"testing"

	"algoprof/internal/core"
	"algoprof/internal/instrument"
	"algoprof/internal/mj/compiler"
	"algoprof/internal/vm"
)

// recursiveLoopSrc walks a tree through a loop inside a recursive method.
// Recursion folding makes every call's loop the same repetition node, so
// that node's invocations nest: an inner invocation completes, and enters
// History, before the outer one that started first.
const recursiveLoopSrc = `
class Node {
  Node[] kids; int n;
  Node() { kids = new Node[2]; n = 0; }
}
class Main {
  public static void main() {
    Node root = build(3);
    check(visit(root) == 15);
  }
  static Node build(int d) {
    Node v = new Node();
    if (d > 0) {
      v.kids[0] = build(d - 1);
      v.kids[1] = build(d - 1);
      v.n = 2;
    }
    return v;
  }
  static int visit(Node v) {
    int c = 1;
    for (int i = 0; i < v.n; i++) { c = c + visit(v.kids[i]); }
    return c;
  }
}`

// profileRecursiveLoop profiles recursiveLoopSrc and returns the finished
// profiler with its visit loop node.
func profileRecursiveLoop(t *testing.T) (*core.Profiler, *core.Node) {
	t.Helper()
	prog, err := compiler.CompileSource(recursiveLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := instrument.Instrument(prog, instrument.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewProfiler(ins, core.Options{})
	if err := vm.New(ins.Prog, vm.Config{Listener: p, Plan: ins.Plan, Seed: 1}).Run(); err != nil {
		t.Fatal(err)
	}
	p.Finish()
	var loop *core.Node
	var walk func(n *core.Node)
	walk = func(n *core.Node) {
		if p.NodeName(n) == "Main.visit/loop1" {
			loop = n
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(p.Root())
	if loop == nil || len(loop.History) < 2 {
		t.Fatal("no Main.visit/loop1 node with recorded invocations")
	}
	return p, loop
}

// TestCheckTreeNestedLoopInRecursion: a clean profile whose loop node
// records invocations out of index order passes the tree checks.
func TestCheckTreeNestedLoopInRecursion(t *testing.T) {
	p, loop := profileRecursiveLoop(t)
	ordered := true
	for i := 1; i < len(loop.History); i++ {
		if loop.History[i].Index < loop.History[i-1].Index {
			ordered = false
		}
	}
	if ordered {
		t.Fatal("visit loop history is in index order; the workload no longer nests same-node invocations")
	}
	if vs := CheckTree(p, false); len(vs) != 0 {
		t.Errorf("clean profile flagged: %v", vs)
	}
}

// TestCheckTreeAccountingViolations: a History entry recorded twice and an
// index at or past the node's started count are each flagged.
func TestCheckTreeAccountingViolations(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(n *core.Node)
		want   string
	}{
		{"duplicated entry", func(n *core.Node) { n.History = append(n.History, n.History[1]) }, "recorded twice"},
		{"index past started", func(n *core.Node) { n.History[1].Index = n.Started() }, ">= started"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, loop := profileRecursiveLoop(t)
			tc.damage(loop)
			var msgs []string
			for _, v := range CheckTree(p, false) {
				if v.Rule == "tree-accounting" && strings.Contains(v.Msg, tc.want) {
					return
				}
				msgs = append(msgs, v.String())
			}
			t.Errorf("no tree-accounting violation containing %q; got %v", tc.want, msgs)
		})
	}
}

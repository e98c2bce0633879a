// Package cct implements the traditional calling-context-tree profiler
// that the AlgoProf paper uses as its baseline (Figure 2): each calling
// context is annotated with its call count and its inclusive/exclusive
// cost. Wall-clock time is replaced by executed bytecode instructions,
// which is deterministic and proportional to interpreter work.
package cct

import (
	"fmt"
	"sort"
	"strings"

	"algoprof/internal/events"
	"algoprof/internal/instrument"
	"algoprof/internal/mj/bytecode"
	"algoprof/internal/vm"
)

// Node is one calling context.
type Node struct {
	MethodID int
	Parent   *Node
	Children []*Node
	// Calls is the number of invocations of this context.
	Calls int64
	// Inclusive is the total cost (executed instructions) spent in this
	// context including callees.
	Inclusive uint64

	childIdx map[int]*Node
}

// Exclusive returns the context's cost minus its children's.
func (n *Node) Exclusive() uint64 {
	x := n.Inclusive
	for _, c := range n.Children {
		if c.Inclusive > x {
			return 0
		}
		x -= c.Inclusive
	}
	return x
}

func (n *Node) child(m int) *Node {
	if n.childIdx == nil {
		n.childIdx = map[int]*Node{}
	}
	if c, ok := n.childIdx[m]; ok {
		return c
	}
	c := &Node{MethodID: m, Parent: n}
	n.childIdx[m] = c
	n.Children = append(n.Children, c)
	return c
}

// Profiler builds a CCT from method entry/exit events. Run it with a full
// instrumentation plan so every method reports.
type Profiler struct {
	events.NopListener

	// Clock returns the current cost (typically the VM's InstrCount).
	Clock func() uint64

	root  *Node
	cur   *Node
	entry []uint64
}

var _ events.Listener = (*Profiler)(nil)

// New creates a CCT profiler reading cost from clock.
func New(clock func() uint64) *Profiler {
	root := &Node{MethodID: -1}
	return &Profiler{Clock: clock, root: root, cur: root}
}

// Baseline runs prog once under the CCT baseline: full instrumentation, so
// every method reports, with cost read from the VM's instruction counter.
// It returns the finished profile and the instrumented program its method
// ids refer to.
func Baseline(prog *bytecode.Program, seed uint64, input []int64) (*Profiler, *bytecode.Program, error) {
	ins, err := instrument.Instrument(prog, instrument.Full)
	if err != nil {
		return nil, nil, err
	}
	var machine *vm.VM
	p := New(func() uint64 { return machine.InstrCount })
	machine = vm.New(ins.Prog, vm.Config{Listener: p, Plan: ins.Plan, Seed: seed, Input: input})
	if err := machine.Run(); err != nil {
		return nil, nil, err
	}
	p.Finish()
	return p, ins.Prog, nil
}

// Root returns the synthetic root context.
func (p *Profiler) Root() *Node { return p.root }

// MethodEntry implements events.Listener.
func (p *Profiler) MethodEntry(methodID int) {
	p.cur = p.cur.child(methodID)
	p.cur.Calls++
	p.entry = append(p.entry, p.Clock())
}

// MethodExit implements events.Listener.
func (p *Profiler) MethodExit(methodID int) {
	if p.cur.Parent == nil {
		return // unbalanced; ignore
	}
	start := p.entry[len(p.entry)-1]
	p.entry = p.entry[:len(p.entry)-1]
	p.cur.Inclusive += p.Clock() - start
	p.cur = p.cur.Parent
}

// Finish computes the root's inclusive cost.
func (p *Profiler) Finish() {
	var total uint64
	for _, c := range p.root.Children {
		total += c.Inclusive
	}
	p.root.Inclusive = total
}

// HotMethod is a flat-profile entry aggregated over contexts.
type HotMethod struct {
	MethodID  int
	Calls     int64
	Exclusive uint64
	Inclusive uint64
}

// Flat aggregates the CCT into a per-method profile sorted by exclusive
// cost (the "hottest method" view).
func (p *Profiler) Flat() []HotMethod {
	agg := map[int]*HotMethod{}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.MethodID >= 0 {
			h := agg[n.MethodID]
			if h == nil {
				h = &HotMethod{MethodID: n.MethodID}
				agg[n.MethodID] = h
			}
			h.Calls += n.Calls
			h.Exclusive += n.Exclusive()
			h.Inclusive += n.Inclusive
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(p.root)
	out := make([]HotMethod, 0, len(agg))
	for _, h := range agg {
		out = append(out, *h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Exclusive != out[j].Exclusive {
			return out[i].Exclusive > out[j].Exclusive
		}
		return out[i].MethodID < out[j].MethodID
	})
	return out
}

// Render prints the CCT like the paper's Figure 2: each context with its
// call count and inclusive cost.
func Render(p *Profiler, prog *bytecode.Program) string {
	var sb strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		if n.MethodID >= 0 {
			m := prog.Sem.MethodByID(n.MethodID)
			fmt.Fprintf(&sb, "%s%s  calls=%d cost=%d (excl=%d)\n",
				strings.Repeat("  ", depth), m.QualifiedName(), n.Calls, n.Inclusive, n.Exclusive())
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(p.root, -1)
	return sb.String()
}

package verify

import (
	"strings"
	"testing"

	"algoprof/internal/cct"
	"algoprof/internal/core"
	"algoprof/internal/events"
	"algoprof/internal/events/pipeline"
	"algoprof/internal/instrument"
	"algoprof/internal/mj/compiler"
	"algoprof/internal/vm"
)

// profileAndCheck hands each record to the profiler, filtered to its
// plan, and then to the checker, as a verified run's session does.
type profileAndCheck struct {
	p    *core.Profiler
	plan *events.Plan
	c    *Checker
}

func (f profileAndCheck) Record(r *pipeline.Record) {
	pipeline.Deliver(f.p, f.plan, r)
	f.c.Record(r)
}

// streamAndTree profiles recursiveLoopSrc with a Checker tapping the
// profiler's own stream, and returns both with the ids of the program's
// one loop and its one recursive method.
func streamAndTree(t *testing.T) (c *Checker, p *core.Profiler, loopID, methodID int) {
	t.Helper()
	prog, err := compiler.CompileSource(recursiveLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := instrument.Instrument(prog, instrument.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	p, c = core.NewProfiler(ins, core.Options{}), NewChecker()
	pr := pipeline.NewProducer(profileAndCheck{p, ins.Plan, c}, p)
	machine := vm.New(ins.Prog, vm.Config{Listener: pr, Plan: ins.Plan, Journal: pr, Seed: 1})
	pr.BindClock(&machine.InstrCount)
	if err := machine.Run(); err != nil {
		t.Fatal(err)
	}
	p.Finish()
	c.Finish(false)
	loopID, methodID = -1, -1
	var walk func(n *core.Node)
	walk = func(n *core.Node) {
		switch n.Kind {
		case core.KindLoop:
			loopID = n.ID
		case core.KindRecursion:
			methodID = n.ID
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(p.Root())
	if loopID < 0 || methodID < 0 || c.loopBacks[loopID] == 0 {
		t.Fatal("recursiveLoopSrc no longer has a looping loop node and a recursion node")
	}
	return c, p, loopID, methodID
}

// TestAgreeStream: the tree agrees with the stream it was built from,
// and each agreement rule fires on a stream tally that disagrees with it.
func TestAgreeStream(t *testing.T) {
	c, p, _, _ := streamAndTree(t)
	if vs := AgreeStream(c, p); len(vs) != 0 {
		t.Fatalf("agreeing stream and tree flagged: %v", vs)
	}
	for _, tc := range []struct {
		name   string
		damage func(c *Checker, loop, method int)
		want   string
	}{
		{"extra loop entry", func(c *Checker, loop, _ int) { c.loopEntries[loop]++ }, "entries, tree started"},
		{"loop entries missing", func(c *Checker, loop, _ int) { delete(c.loopEntries, loop) }, "stream carried none"},
		{"extra back edge", func(c *Checker, loop, _ int) { c.loopBacks[loop]++ }, "back edges, tree recorded"},
		{"back edges missing", func(c *Checker, loop, _ int) { delete(c.loopBacks, loop) }, "stream carried no back edges"},
		{"too few method entries", func(c *Checker, _, method int) { c.methodEntries[method] = 0 }, "outermost +"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, p, loop, method := streamAndTree(t)
			tc.damage(c, loop, method)
			vs := AgreeStream(c, p)
			if len(vs) != 1 || vs[0].Rule != "stream-tree" || !strings.Contains(vs[0].Msg, tc.want) {
				t.Errorf("got %v, want one stream-tree violation containing %q", vs, tc.want)
			}
		})
	}
}

// TestAgreeCCT: a CCT whose per-method calls equal the stream's method
// entries passes; a call count off by one, a method the stream never
// entered, and an entered method the CCT lacks each fire.
func TestAgreeCCT(t *testing.T) {
	c := check([]pipeline.Record{entry(1), entry(2), exit(2), entry(2), exit(2), exit(1), entry(3), exit(3)}, true, false)
	agree := []cct.HotMethod{{MethodID: 1, Calls: 1}, {MethodID: 2, Calls: 2}, {MethodID: 3, Calls: 1}}
	if vs := AgreeCCT(c, agree); len(vs) != 0 {
		t.Fatalf("agreeing CCT flagged: %v", vs)
	}
	for _, tc := range []struct {
		name string
		flat []cct.HotMethod
		want string
	}{
		{"calls differ", []cct.HotMethod{{MethodID: 1, Calls: 1}, {MethodID: 2, Calls: 3}, {MethodID: 3, Calls: 1}},
			"method 2: cct counted 3 calls, stream carried 2 entries"},
		{"method never entered", append(append([]cct.HotMethod{}, agree...), cct.HotMethod{MethodID: 7, Calls: 1}),
			"method 7: cct counted 1 calls, stream carried 0 entries"},
		{"entered method missing", agree[:2], "method 3: stream carried 1 entries, cct has no record"},
	} {
		vs := AgreeCCT(c, tc.flat)
		if len(vs) != 1 || vs[0].Rule != "stream-cct" || vs[0].Msg != tc.want {
			t.Errorf("%s: got %v, want one stream-cct violation %q", tc.name, vs, tc.want)
		}
	}
}

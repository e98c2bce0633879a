package pipeline

import (
	"testing"

	"algoprof/internal/events"
)

// seqListener records the order of per-instruction ticks it receives.
type seqListener struct {
	events.NopListener
	got []int64
}

func (l *seqListener) Instr(methodID, pc int) {
	l.got = append(l.got, int64(methodID)<<32|int64(pc))
}

func TestEveryConsumerSeesEveryRecordInOrder(t *testing.T) {
	for consumers := 1; consumers <= 4; consumers++ {
		tp := New()
		ls := make([]*seqListener, consumers)
		for i := range ls {
			ls[i] = &seqListener{}
			tp.Add(ls[i], nil)
		}
		pr := tp.Producer()
		const n = 10_000
		for i := 0; i < n; i++ {
			pr.Instr(i>>16, i&0xffff)
		}
		for ci, l := range ls {
			if len(l.got) != n {
				t.Fatalf("consumers=%d: consumer %d got %d records, want %d", consumers, ci, len(l.got), n)
			}
			for i, v := range l.got {
				want := int64(i>>16)<<32 | int64(i&0xffff)
				if v != want {
					t.Fatalf("consumer %d: record %d = %d, want %d", ci, i, v, want)
				}
			}
		}
	}
}

// loopCounter counts loop events.
type loopCounter struct {
	events.NopListener
	entries, backs, exits int
}

func (l *loopCounter) LoopEntry(int) { l.entries++ }
func (l *loopCounter) LoopBack(int)  { l.backs++ }
func (l *loopCounter) LoopExit(int)  { l.exits++ }

func TestSynchronousModeDispatchesInline(t *testing.T) {
	tp := New()
	a, b := &loopCounter{}, &loopCounter{}
	tp.Add(a, nil)
	tp.Add(b, nil)
	pr := tp.Producer()
	pr.LoopEntry(1)
	pr.LoopBack(1)
	// Every consumer has seen an event by the time the producing call
	// returns.
	if a.backs != 1 || b.backs != 1 {
		t.Fatalf("dispatch not inline: a=%d b=%d", a.backs, b.backs)
	}
	pr.LoopExit(1)
	for _, l := range []*loopCounter{a, b} {
		if l.entries != 1 || l.backs != 1 || l.exits != 1 {
			t.Fatalf("counts = %d/%d/%d, want 1/1/1", l.entries, l.backs, l.exits)
		}
	}
}

// planRecorder records which method events survived the consumer filter.
type planRecorder struct {
	events.NopListener
	methods []int
}

func (l *planRecorder) MethodEntry(id int) { l.methods = append(l.methods, id) }

func TestPerConsumerPlanFilter(t *testing.T) {
	plan := events.NewEmptyPlan(4, 0, 0)
	plan.MethodEntryExit[2] = true
	tp := New()
	filtered := &planRecorder{}
	full := &planRecorder{}
	tp.Add(filtered, plan)
	tp.Add(full, nil)
	pr := tp.Producer()
	for id := 0; id < 4; id++ {
		pr.MethodEntry(id)
	}
	if len(filtered.methods) != 1 || filtered.methods[0] != 2 {
		t.Errorf("filtered consumer saw %v, want [2]", filtered.methods)
	}
	if len(full.methods) != 4 {
		t.Errorf("unfiltered consumer saw %v, want all 4", full.methods)
	}
}

// fakeEntity is a heap entity with no successors.
type fakeEntity struct{ id uint64 }

func (e *fakeEntity) EntityID() uint64                    { return e.id }
func (e *fakeEntity) TypeName() string                    { return "Node" }
func (e *fakeEntity) ClassID() int                        { return 1 }
func (e *fakeEntity) IsArray() bool                       { return false }
func (e *fakeEntity) Capacity() int                       { return 0 }
func (e *fakeEntity) ForEachRef(func(int, events.Entity)) {}
func (e *fakeEntity) ForEachElemKey(func(events.ElemKey)) {}

// countingTap is a raw record consumer, as the trace writer is.
type countingTap struct {
	events.NopListener
	n int
}

func (t *countingTap) Record(*Record) { t.n++ }

// TestSynchronousDispatchAllocatesNothing pins the transport's hot path:
// a record is dispatched from the producer's own slot, so no event
// allocates, whether it reaches a decoded listener or a raw tap.
func TestSynchronousDispatchAllocatesNothing(t *testing.T) {
	var clock uint64
	tp := New()
	l := &countingListener{}
	tap := &countingTap{}
	tp.Add(l, nil)
	tp.Add(tap, nil)
	pr := tp.Producer()
	pr.BindClock(&clock)
	obj, arr := &fakeEntity{id: 1}, &fakeEntity{id: 2}
	const perRun = 11 // records
	allocs := testing.AllocsPerRun(1000, func() {
		clock++
		pr.LoopEntry(1)
		pr.LoopBack(1)
		pr.MethodEntry(2)
		pr.Alloc(obj, 1)
		pr.AllocEntity(obj, events.ElemModeRef)
		pr.FieldGet(obj, 3)
		pr.FieldPut(obj, 3, arr)
		pr.ArrayLoad(arr)
		pr.ArrayStore(arr, obj)
		pr.MethodExit(2)
		pr.LoopExit(1)
	})
	if allocs != 0 {
		t.Errorf("dispatch: %v allocations per %d events, want 0", allocs, perRun)
	}
	if want := 1001 * perRun; tap.n != want || l.n != 1001 {
		t.Errorf("tap saw %d records, listener %d back edges; want %d and %d", tap.n, l.n, want, 1001)
	}
}

func TestClockStamping(t *testing.T) {
	var clock uint64
	tp := New()
	var cons *Consumer
	seen := []uint64{}
	probe := InstrTap{Fn: func(_, _ int) { seen = append(seen, cons.Clock()) }}
	cons = tp.Add(probe, nil)
	pr := tp.Producer()
	pr.BindClock(&clock)
	for _, c := range []uint64{5, 9, 42} {
		clock = c
		pr.Instr(0, 0)
	}
	if len(seen) != 3 || seen[0] != 5 || seen[1] != 9 || seen[2] != 42 {
		t.Fatalf("clocks = %v, want [5 9 42]", seen)
	}
}

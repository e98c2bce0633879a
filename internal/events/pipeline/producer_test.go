package pipeline

import (
	"testing"

	"algoprof/internal/events"
)

// tapFunc is a RecordTap made of a function.
type tapFunc func(r *Record)

func (f tapFunc) Record(r *Record) { f(r) }

// TestEveryConsumerSeesEveryRecordInOrder: a tap that fans each record out
// to its consumers, as a thread's session does, gives every consumer every
// record in production order.
func TestEveryConsumerSeesEveryRecordInOrder(t *testing.T) {
	for consumers := 1; consumers <= 4; consumers++ {
		got := make([][]Record, consumers)
		pr := NewProducer(tapFunc(func(r *Record) {
			for ci := range got {
				got[ci] = append(got[ci], *r)
			}
		}), nil)
		const n = 10_000
		for i := 0; i < n; i++ {
			pr.Instr(i>>8, i&0xff)
		}
		for ci, rs := range got {
			if len(rs) != n {
				t.Fatalf("consumers=%d: consumer %d got %d records, want %d", consumers, ci, len(rs), n)
			}
			for i, r := range rs {
				if r.Op != OpInstr || int(r.ID) != i>>8 || int(r.Ent) != i&0xff {
					t.Fatalf("consumer %d: record %d = %+v, want tick %d:%d", ci, i, r, i>>8, i&0xff)
				}
			}
		}
	}
}

// nopPathListener is a path-aware listener that ignores every event.
type nopPathListener struct{ events.NopListener }

func (nopPathListener) SiteTouch(int, events.Entity) bool { return false }
func (nopPathListener) LoopPathCount(_, _ int, _ int64)   {}

// loopCounter counts loop events.
type loopCounter struct {
	nopPathListener
	entries, backs, exits int
}

func (l *loopCounter) LoopEntry(int) { l.entries++ }
func (l *loopCounter) LoopBack(int)  { l.backs++ }
func (l *loopCounter) LoopExit(int)  { l.exits++ }

// TestSynchronousModeDispatchesInline: every listener the tap delivers to
// has seen an event by the time the producing call returns.
func TestSynchronousModeDispatchesInline(t *testing.T) {
	a, b := &loopCounter{}, &loopCounter{}
	plan := events.NewEmptyPlan(0, 0, 0)
	pr := NewProducer(tapFunc(func(r *Record) {
		Deliver(a, plan, r)
		Deliver(b, plan, r)
	}), nil)
	pr.LoopEntry(1)
	pr.LoopBack(1)
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

// planRecorder notes what Deliver passed it.
type planRecorder struct {
	nopPathListener
	methods      []int
	loops, paths int
}

func (l *planRecorder) MethodEntry(id int)              { l.methods = append(l.methods, id) }
func (l *planRecorder) LoopEntry(int)                   { l.loops++ }
func (l *planRecorder) LoopPathCount(_, _ int, _ int64) { l.paths++ }

// fullPlan enables every event of n methods, fields and classes.
func fullPlan(n int) *events.Plan {
	p := events.NewEmptyPlan(n, n, n)
	for i := 0; i < n; i++ {
		p.MethodEntryExit[i], p.FieldAccess[i], p.AllocClass[i] = true, true, true
	}
	p.Arrays, p.IO = true, true
	return p
}

// TestDeliverPlanFilter: on a Backends stream, which the VM emits under
// the union plan (every method), Deliver passes the profiler only the
// method records its own plan enables, and loop and path-counter records
// whatever the plan.
func TestDeliverPlanFilter(t *testing.T) {
	own := events.NewEmptyPlan(4, 0, 0)
	own.MethodEntryExit[2] = true
	union := fullPlan(4)
	filtered, full := &planRecorder{}, &planRecorder{}
	pr := NewProducer(tapFunc(func(r *Record) {
		Deliver(filtered, own, r)
		Deliver(full, union, r)
	}), nil)
	pr.LoopEntry(0)
	for id := 0; id < 4; id++ {
		pr.MethodEntry(id)
	}
	pr.LoopPathCount(0, 1, 3)
	if len(filtered.methods) != 1 || filtered.methods[0] != 2 {
		t.Errorf("filtered listener saw methods %v, want [2]", filtered.methods)
	}
	if len(full.methods) != 4 {
		t.Errorf("union-plan listener saw methods %v, want all 4", full.methods)
	}
	for _, l := range []*planRecorder{filtered, full} {
		if l.loops != 1 || l.paths != 1 {
			t.Errorf("listener saw %d loop entries and %d path counts, want 1 and 1", l.loops, l.paths)
		}
	}
}

// countingListener is the cheapest possible listener: one add per back
// edge.
type countingListener struct {
	nopPathListener
	n int64
}

func (l *countingListener) LoopBack(int) { l.n++ }

// fakeEntity is a heap entity with no successors.
type fakeEntity struct{ id uint64 }

func (e *fakeEntity) EntityID() uint64                    { return e.id }
func (e *fakeEntity) TypeName() string                    { return "Node" }
func (e *fakeEntity) ClassID() int                        { return 1 }
func (e *fakeEntity) IsArray() bool                       { return false }
func (e *fakeEntity) Capacity() int                       { return 0 }
func (e *fakeEntity) ForEachRef(func(int, events.Entity)) {}
func (e *fakeEntity) ForEachElemKey(func(events.ElemKey)) {}

// TestDeliveryAllocatesNothing pins the stream's hot path: a record is
// delivered from the producer's own slot, so no event allocates on its
// way from the producer to a raw tap and, through Deliver, to a decoded
// listener.
func TestDeliveryAllocatesNothing(t *testing.T) {
	var clock uint64
	l, plan, raw := &countingListener{}, fullPlan(4), 0
	pr := NewProducer(tapFunc(func(r *Record) {
		Deliver(l, plan, r)
		raw++
	}), l)
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
		t.Errorf("delivery: %v allocations per %d events, want 0", allocs, perRun)
	}
	if want := 1001 * perRun; raw != want || l.n != 1001 {
		t.Errorf("tap saw %d records, listener %d back edges; want %d and %d", raw, l.n, want, 1001)
	}
}

// TestClockStamping: every record carries the bound counter's value at
// publication, the clock the CCT baseline is timed by.
func TestClockStamping(t *testing.T) {
	var clock uint64
	var seen []uint64
	pr := NewProducer(tapFunc(func(r *Record) { seen = append(seen, r.Clock) }), nil)
	pr.BindClock(&clock)
	for _, c := range []uint64{5, 9, 42} {
		clock = c
		pr.Instr(0, 0)
	}
	if len(seen) != 3 || seen[0] != 5 || seen[1] != 9 || seen[2] != 42 {
		t.Fatalf("clocks = %v, want [5 9 42]", seen)
	}
}

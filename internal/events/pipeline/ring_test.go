package pipeline

import (
	"strings"
	"sync/atomic"
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
	for _, bufSize := range []int{8, 64, 1024} {
		for consumers := 1; consumers <= 4; consumers++ {
			tp := New(Config{BufferSize: bufSize})
			ls := make([]*seqListener, consumers)
			for i := range ls {
				ls[i] = &seqListener{}
				tp.Add("seq", ls[i], ConsumerOptions{})
			}
			pr := tp.Producer()
			tp.Start()
			const n = 10_000 // forces many wraparounds at bufSize 8
			for i := 0; i < n; i++ {
				pr.Instr(i>>16, i&0xffff)
			}
			if err := tp.Close(); err != nil {
				t.Fatal(err)
			}
			for ci, l := range ls {
				if len(l.got) != n {
					t.Fatalf("buf=%d consumers=%d: consumer %d got %d records, want %d",
						bufSize, consumers, ci, len(l.got), n)
				}
				for i, v := range l.got {
					want := int64(i>>16)<<32 | int64(i&0xffff)
					if v != want {
						t.Fatalf("buf=%d consumer %d: record %d = %d, want %d", bufSize, ci, i, v, want)
					}
				}
			}
		}
	}
}

// loopCounter counts loop events per id.
type loopCounter struct {
	events.NopListener
	entries, backs, exits atomic.Int64
}

func (l *loopCounter) LoopEntry(int) { l.entries.Add(1) }
func (l *loopCounter) LoopBack(int)  { l.backs.Add(1) }
func (l *loopCounter) LoopExit(int)  { l.exits.Add(1) }

func TestSynchronousModeDispatchesInline(t *testing.T) {
	tp := New(Config{Synchronous: true})
	a, b := &loopCounter{}, &loopCounter{}
	tp.Add("a", a, ConsumerOptions{})
	tp.Add("b", b, ConsumerOptions{})
	pr := tp.Producer()
	tp.Start()
	pr.LoopEntry(1)
	pr.LoopBack(1)
	// Inline mode: events are visible immediately, before Close.
	if a.backs.Load() != 1 || b.backs.Load() != 1 {
		t.Fatalf("synchronous dispatch not inline: a=%d b=%d", a.backs.Load(), b.backs.Load())
	}
	pr.LoopExit(1)
	if err := tp.Close(); err != nil {
		t.Fatal(err)
	}
	for _, l := range []*loopCounter{a, b} {
		if l.entries.Load() != 1 || l.backs.Load() != 1 || l.exits.Load() != 1 {
			t.Fatalf("counts = %d/%d/%d, want 1/1/1", l.entries.Load(), l.backs.Load(), l.exits.Load())
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
	tp := New(Config{})
	filtered := &planRecorder{}
	full := &planRecorder{}
	tp.Add("filtered", filtered, ConsumerOptions{Plan: plan})
	tp.Add("full", full, ConsumerOptions{})
	pr := tp.Producer()
	tp.Start()
	for id := 0; id < 4; id++ {
		pr.MethodEntry(id)
	}
	if err := tp.Close(); err != nil {
		t.Fatal(err)
	}
	if len(filtered.methods) != 1 || filtered.methods[0] != 2 {
		t.Errorf("filtered consumer saw %v, want [2]", filtered.methods)
	}
	if len(full.methods) != 4 {
		t.Errorf("unfiltered consumer saw %v, want all 4", full.methods)
	}
}

// heapCellReader reads a plain shared variable on every FieldGet — the
// barrier protocol must make this race-free.
type heapCellReader struct {
	events.NopListener
	cell *int64
	sum  int64
}

func (l *heapCellReader) FieldGet(events.Entity, int) { l.sum += *l.cell }

// TestBarrierFencesHeapWrites is the -race stress test of the ring: the
// producer mutates a plain (non-atomic) variable only after Barrier, and a
// heap-reading consumer dereferences it on every event. Any flaw in the
// barrier/cursor protocol shows up as a data race under -race and as a
// stale sum otherwise.
func TestBarrierFencesHeapWrites(t *testing.T) {
	var cell int64
	tp := New(Config{BufferSize: 16}) // tiny: exercise backpressure too
	reader := &heapCellReader{cell: &cell}
	fast := &loopCounter{} // non-heap consumer, runs freely ahead
	tp.Add("reader", reader, ConsumerOptions{HeapReader: true})
	tp.Add("fast", fast, ConsumerOptions{})
	pr := tp.Producer()
	tp.Start()
	const n = 5000
	var want int64
	for i := 1; i <= n; i++ {
		pr.FieldGet(nil, 0) // reader adds the current cell value
		pr.LoopBack(7)
		want += cell
		pr.Barrier() // all published FieldGets drained before the write
		cell = int64(i)
	}
	if err := tp.Close(); err != nil {
		t.Fatal(err)
	}
	if reader.sum != want {
		t.Errorf("reader sum = %d, want %d (barrier let a write overtake a read)", reader.sum, want)
	}
	if fast.backs.Load() != n {
		t.Errorf("fast consumer backs = %d, want %d", fast.backs.Load(), n)
	}
}

// TestExactlyOnceUnderBarriers drives a heap-reading consumer through
// barriers at several cadences and ring sizes, so the producer's inline
// drains keep racing the consumer goroutine's claims. Every record must
// arrive exactly once and in order: a consumer that loaded the published
// count before its own cursor could see a drain overtake it, rewind its
// cursor and deliver the drained records a second time.
func TestExactlyOnceUnderBarriers(t *testing.T) {
	const n = 200_000
	for _, bufSize := range []int{8, 64, 4096} {
		for _, every := range []int{1, 4, 7} {
			tp := New(Config{BufferSize: bufSize})
			l := &seqListener{}
			tp.Add("heap", l, ConsumerOptions{HeapReader: true})
			pr := tp.Producer()
			tp.Start()
			for i := 0; i < n; i++ {
				pr.Instr(0, i)
				if (i+1)%every == 0 {
					pr.Barrier()
				}
			}
			if err := tp.Close(); err != nil {
				t.Fatal(err)
			}
			if len(l.got) != n {
				t.Fatalf("buf=%d barrier every %d: delivered %d records, want %d", bufSize, every, len(l.got), n)
			}
			for i, v := range l.got {
				if v != int64(i) {
					t.Fatalf("buf=%d barrier every %d: record %d = %d, want %d", bufSize, every, i, v, i)
				}
			}
		}
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

// TestSynchronousDispatchAllocatesNothing pins the synchronous transport's
// hot path: a record is dispatched from the producer's own slot, so no
// event allocates, whether it reaches a decoded listener or a raw tap.
func TestSynchronousDispatchAllocatesNothing(t *testing.T) {
	var clock uint64
	tp := New(Config{Synchronous: true})
	l := &countingListener{}
	tap := &countingTap{}
	tp.Add("core", l, ConsumerOptions{HeapReader: true})
	tp.Add("trace", tap, ConsumerOptions{})
	pr := tp.Producer()
	pr.BindClock(&clock)
	tp.Start()
	obj, arr := &fakeEntity{id: 1}, &fakeEntity{id: 2}
	const perRun = 11 // records; the Barrier publishes none
	allocs := testing.AllocsPerRun(1000, func() {
		clock++
		pr.LoopEntry(1)
		pr.LoopBack(1)
		pr.MethodEntry(2)
		pr.Alloc(obj, 1)
		pr.AllocEntity(obj, events.ElemModeRef)
		pr.FieldGet(obj, 3)
		pr.Barrier()
		pr.FieldPut(obj, 3, arr)
		pr.ArrayLoad(arr)
		pr.ArrayStore(arr, obj)
		pr.MethodExit(2)
		pr.LoopExit(1)
	})
	if err := tp.Close(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("synchronous dispatch: %v allocations per %d events, want 0", allocs, perRun)
	}
	if want := 1001 * perRun; tap.n != want || l.n != 1001 {
		t.Errorf("tap saw %d records, listener %d back edges; want %d and %d", tap.n, l.n, want, 1001)
	}
}

// panicker panics on the third event.
type panicker struct {
	events.NopListener
	n int
}

func (l *panicker) LoopBack(int) {
	l.n++
	if l.n == 3 {
		panic("listener exploded")
	}
}

func TestConsumerPanicDoesNotDeadlockProducer(t *testing.T) {
	tp := New(Config{BufferSize: 8})
	tp.Add("boom", &panicker{}, ConsumerOptions{HeapReader: true})
	pr := tp.Producer()
	tp.Start()
	// Far more records than the buffer holds, plus barriers: both the
	// backpressure wait and the barrier wait must survive the dead consumer.
	for i := 0; i < 1000; i++ {
		pr.LoopBack(1)
		if i%10 == 0 {
			pr.Barrier()
		}
	}
	err := tp.Close()
	if err == nil || !strings.Contains(err.Error(), "listener exploded") {
		t.Fatalf("Close error = %v, want recovered listener panic", err)
	}
}

func TestBatchClampAndTinyBuffers(t *testing.T) {
	// Batch larger than the buffer must clamp, not deadlock.
	tp := New(Config{BufferSize: 4, Batch: 1024})
	l := &seqListener{}
	tp.Add("seq", l, ConsumerOptions{})
	pr := tp.Producer()
	tp.Start()
	for i := 0; i < 100; i++ {
		pr.Instr(0, i)
	}
	if err := tp.Close(); err != nil {
		t.Fatal(err)
	}
	if len(l.got) != 100 {
		t.Fatalf("got %d records, want 100", len(l.got))
	}
}

func TestClockStamping(t *testing.T) {
	var clock uint64
	tp := New(Config{Synchronous: true})
	var cons *Consumer
	seen := []uint64{}
	probe := InstrTap{Fn: func(_, _ int) { seen = append(seen, cons.Clock()) }}
	cons = tp.Add("clock", probe, ConsumerOptions{})
	pr := tp.Producer()
	pr.BindClock(&clock)
	tp.Start()
	for _, c := range []uint64{5, 9, 42} {
		clock = c
		pr.Instr(0, 0)
	}
	if err := tp.Close(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[0] != 5 || seen[1] != 9 || seen[2] != 42 {
		t.Fatalf("clocks = %v, want [5 9 42]", seen)
	}
}

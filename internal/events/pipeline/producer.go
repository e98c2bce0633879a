package pipeline

import (
	"sync/atomic"

	"algoprof/internal/events"
)

// Producer is the writing end of a Transport. It implements
// events.Listener, so the VM (or the probe API) publishes by emitting
// events exactly as it would to an inline listener. All methods must be
// called from a single goroutine.
type Producer struct {
	t *Transport
	// pos is the next sequence number to write (records written but not
	// yet flushed are invisible to consumers).
	pos int64
	// flushed mirrors t.published; kept producer-local to avoid re-loading
	// the atomic on the hot path.
	flushed int64
	// drained is the producer position through which all heap readers have
	// confirmed consumption; Barrier is a no-op while pos == drained.
	drained int64
	// minSeen caches the slowest consumer cursor from the last space check.
	minSeen int64
	// clock, if bound, stamps each record with the VM instruction counter.
	clock *uint64
	batch int64
	sync  bool
	// slot is the record a synchronous producer is dispatching. Consumers
	// get a pointer into the producer rather than to emit's argument, so
	// no record escapes to the heap.
	slot        Record
	heapReaders []*Consumer
	// touchC is the consumer that answers SiteTouch calls (the first
	// path-aware decoded consumer); bound by Transport.Start.
	touchC *Consumer
	// owner is the id of the goroutine that first emitted through this
	// producer; -race builds enforce it (see checkOwner), release builds
	// never touch it. ownerCalls counts frontend calls for the sampled
	// check — deliberately a plain field: a second goroutine bumping it
	// is itself the data race being hunted.
	owner      atomic.Int64
	ownerCalls uint64
}

// BindClock makes every subsequent record carry *counter at publication
// time. Bind the VM's &InstrCount so clock-dependent consumers (CCT) see
// the same timestamps pipelined as they would inline.
func (p *Producer) BindClock(counter *uint64) { p.clock = counter }

func (p *Producer) emit(r Record) {
	p.checkOwner()
	if p.clock != nil {
		r.Clock = *p.clock
	}
	if p.sync {
		p.slot = r
		for _, c := range p.t.consumers {
			c.dispatch(&p.slot)
		}
		return
	}
	seq := p.pos
	if seq-p.minSeen >= int64(len(p.t.buf)) {
		p.waitSpace(seq)
	}
	p.t.buf[seq&p.t.mask] = r
	p.pos = seq + 1
	if p.pos-p.flushed >= p.batch {
		p.flush()
	}
}

// flush publishes all written records with one release store.
func (p *Producer) flush() {
	if p.pos != p.flushed {
		p.t.published.Store(p.pos)
		p.flushed = p.pos
	}
}

// waitSpace blocks until the slowest consumer frees the slot for seq. It
// publishes first — the unflushed tail is what the consumers are missing.
func (p *Producer) waitSpace(seq int64) {
	p.flush()
	for spins := 0; ; spins++ {
		min := p.t.minCursor()
		p.minSeen = min
		if seq-min < int64(len(p.t.buf)) {
			return
		}
		if p.t.aborted.Load() {
			// Consumers are fast-forwarding without reading; overwriting
			// unconsumed slots is fine — nothing will dispatch them.
			return
		}
		idle(spins)
	}
}

// Flush publishes any buffered records without waiting for consumers.
func (p *Producer) Flush() { p.flush() }

// Barrier fences a heap mutation: it publishes pending records and brings
// every heap-reading consumer up to date with them, so no consumer can
// observe the upcoming write while traversing the heap for an earlier
// event. The producing frontend must call this before each heap write.
// Consumers not marked HeapReader are not waited on.
func (p *Producer) Barrier() {
	p.checkOwner()
	if p.sync || p.pos == p.drained || len(p.heapReaders) == 0 {
		return
	}
	p.flush()
	for _, c := range p.heapReaders {
		p.drain(c)
	}
	p.drained = p.pos
}

// drain brings one heap-reading consumer up to the producer's position. If
// the consumer is idle (the common case in write-heavy phases, where
// barriers keep it fully caught up), the producer claims the pending range
// and dispatches it inline — a heap-write fence then costs no scheduler
// round trip, which would otherwise dominate on a single-CPU machine.
// Otherwise the consumer goroutine owns an in-flight claim and the
// producer waits for it to finish.
func (p *Producer) drain(c *Consumer) {
	for spins := 0; ; spins++ {
		if c.dead.Load() {
			return
		}
		pos := c.pos.Load()
		if pos >= p.pos {
			return
		}
		if c.claim.CompareAndSwap(pos, p.pos) {
			if c.dispatchRange(pos, p.pos) {
				c.pos.Store(p.pos)
			}
			return
		}
		idle(spins)
	}
}

// Instr publishes a per-instruction tick. Wire this as the VM's InstrHook
// when a consumer (the basic-block baseline) implements InstrListener.
func (p *Producer) Instr(methodID, pc int) {
	p.emit(Record{Op: OpInstr, ID: int32(methodID), Ent: int64(pc)})
}

// AllocEntity implements events.Journal: it publishes an entity-birth
// record carrying the layout a trace writer needs (type name, class id,
// capacity, element mode). Wire the producer as the frontend's Journal
// only when a RecordTap consumer is attached — no one else reads these.
func (p *Producer) AllocEntity(e events.Entity, mode events.ElemMode) {
	p.emit(Record{
		Op:  OpJrnlAlloc,
		ID:  int32(e.ClassID()),
		Ent: entID(e),
		Aux: int64(e.Capacity()),
		E1:  e,
		Kx:  uint8(mode),
		KS:  e.TypeName(),
	})
}

// ArrayStoreAt implements events.Journal: it publishes one indexed array
// element store with the stored value, so a replayed shadow heap can apply
// the exact mutation the live heap saw.
func (p *Producer) ArrayStoreAt(arr events.Entity, idx int, key events.ElemKey, newTarget events.Entity) {
	r := Record{Op: OpJrnlStore, ID: int32(idx), Ent: entID(arr), Aux: entID(newTarget), E1: arr, E2: newTarget}
	switch k := key.(type) {
	case int64:
		r.Kx, r.KI = KeyInt, k
	case string:
		r.Kx, r.KS = KeyStr, k
	}
	p.emit(r)
}

// LoopEntry implements events.Listener.
func (p *Producer) LoopEntry(id int) { p.emit(Record{Op: OpLoopEntry, ID: int32(id)}) }

// LoopBack implements events.Listener.
func (p *Producer) LoopBack(id int) { p.emit(Record{Op: OpLoopBack, ID: int32(id)}) }

// LoopExit implements events.Listener.
func (p *Producer) LoopExit(id int) { p.emit(Record{Op: OpLoopExit, ID: int32(id)}) }

// MethodEntry implements events.Listener.
func (p *Producer) MethodEntry(id int) { p.emit(Record{Op: OpMethodEntry, ID: int32(id)}) }

// MethodExit implements events.Listener.
func (p *Producer) MethodExit(id int) { p.emit(Record{Op: OpMethodExit, ID: int32(id)}) }

// FieldGet implements events.Listener.
func (p *Producer) FieldGet(obj events.Entity, fieldID int) {
	p.emit(Record{Op: OpFieldGet, ID: int32(fieldID), Ent: entID(obj), E1: obj})
}

// FieldPut implements events.Listener.
func (p *Producer) FieldPut(obj events.Entity, fieldID int, newTarget events.Entity) {
	p.emit(Record{Op: OpFieldPut, ID: int32(fieldID), Ent: entID(obj), Aux: entID(newTarget), E1: obj, E2: newTarget})
}

// ArrayLoad implements events.Listener.
func (p *Producer) ArrayLoad(arr events.Entity) {
	p.emit(Record{Op: OpArrayLoad, Ent: entID(arr), E1: arr})
}

// ArrayStore implements events.Listener.
func (p *Producer) ArrayStore(arr events.Entity, newTarget events.Entity) {
	p.emit(Record{Op: OpArrayStore, Ent: entID(arr), Aux: entID(newTarget), E1: arr, E2: newTarget})
}

// Alloc implements events.Listener.
func (p *Producer) Alloc(obj events.Entity, classID int) {
	p.emit(Record{Op: OpAlloc, ID: int32(classID), Ent: entID(obj), E1: obj})
}

// LoopPathCount implements events.PathListener: path counters ride the
// ring like any other record, so consumers see them in stream order.
func (p *Producer) LoopPathCount(loopID, pathID int, count int64) {
	p.emit(Record{Op: OpPathCount, ID: int32(loopID), Ent: int64(pathID), Aux: count})
}

// SiteTouch implements events.PathListener. Unlike every other event it
// needs an answer, so it cannot ride the ring: the producer first brings
// the path-aware consumer up to date with all preceding records (the same
// work-stealing drain Barrier uses — afterwards the consumer goroutine is
// provably idle), then asks its listener directly. With no path-aware
// consumer attached every site stays unresolved, which only costs repeat
// calls.
func (p *Producer) SiteTouch(site int, obj events.Entity) bool {
	p.checkOwner()
	c := p.touchC
	if c == nil || c.dead.Load() {
		return false
	}
	if !p.sync {
		p.flush()
		p.drain(c)
		if c.dead.Load() {
			return false
		}
	}
	return c.pathL.SiteTouch(site, obj)
}

// InputRead implements events.Listener.
func (p *Producer) InputRead() { p.emit(Record{Op: OpInputRead}) }

// OutputWrite implements events.Listener.
func (p *Producer) OutputWrite() { p.emit(Record{Op: OpOutputWrite}) }

var _ events.Journal = (*Producer)(nil)

func entID(e events.Entity) int64 {
	if e == nil {
		return 0
	}
	return int64(e.EntityID())
}

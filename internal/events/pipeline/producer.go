package pipeline

import "algoprof/internal/events"

// Producer is the writing end of a Transport. It implements
// events.Listener, so the VM publishes by emitting events exactly as it
// would to an inline listener. A producer belongs to one goroutine: every
// spawned VM thread gets a transport of its own.
type Producer struct {
	t *Transport
	// clock, if bound, stamps each record with the VM instruction counter.
	clock *uint64
	// slot is the record being dispatched. Consumers get a pointer into
	// the producer rather than to emit's argument, so no record escapes
	// to the heap.
	slot Record
	// touch answers SiteTouch calls (the first path-aware decoded
	// consumer); bound by Transport.Add.
	touch events.PathListener
}

// BindClock makes every subsequent record carry *counter at publication
// time. Bind the VM's &InstrCount so clock-dependent consumers (CCT) see
// the same timestamps live as they do on replay.
func (p *Producer) BindClock(counter *uint64) { p.clock = counter }

func (p *Producer) emit(r Record) {
	if p.clock != nil {
		r.Clock = *p.clock
	}
	p.slot = r
	for _, c := range p.t.consumers {
		c.dispatch(&p.slot)
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

// LoopPathCount implements events.PathListener: path counters travel the
// stream like any other record, so consumers see them in stream order.
func (p *Producer) LoopPathCount(loopID, pathID int, count int64) {
	p.emit(Record{Op: OpPathCount, ID: int32(loopID), Ent: int64(pathID), Aux: count})
}

// SiteTouch implements events.PathListener. Unlike every other event it
// needs an answer, so the producer asks the path-aware consumer's
// listener directly. With no path-aware consumer attached every site
// stays unresolved, which only costs repeat calls.
func (p *Producer) SiteTouch(site int, obj events.Entity) bool {
	if p.touch == nil {
		return false
	}
	return p.touch.SiteTouch(site, obj)
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

package trace

import "algoprof/internal/events"

// shadowEntity is the offline stand-in for a live heap entity. The reader
// materializes one per journaled allocation and mutates it from the
// recorded stream (field-put links, journaled element stores), so replayed
// listeners traverse exactly the structure the live listeners saw.
type shadowEntity struct {
	id       uint64
	typeName string
	classID  int
	array    bool
	capacity int
	mode     events.ElemMode
	links    []shadowLink // object reference fields, in first-put order
	slots    []shadowSlot // array elements, grown to the touched prefix
}

type shadowLink struct {
	fieldID int
	target  *shadowEntity
}

const (
	slotUnset uint8 = iota
	slotInt
	slotStr
	slotRef
)

type shadowSlot struct {
	kind uint8
	i    int64
	s    string
	ref  *shadowEntity
}

// EntityID implements events.Entity.
func (e *shadowEntity) EntityID() uint64 { return e.id }

// TypeName implements events.Entity.
func (e *shadowEntity) TypeName() string { return e.typeName }

// ClassID implements events.Entity.
func (e *shadowEntity) ClassID() int { return e.classID }

// IsArray implements events.Entity.
func (e *shadowEntity) IsArray() bool { return e.array }

// Capacity implements events.Entity.
func (e *shadowEntity) Capacity() int { return e.capacity }

// setLink records a field-put: a nil target (primitive or null store)
// clears the link, mirroring a live object whose reference field no longer
// holds an entity.
func (e *shadowEntity) setLink(fieldID int, target *shadowEntity) {
	for i := range e.links {
		if e.links[i].fieldID == fieldID {
			e.links[i].target = target
			return
		}
	}
	e.links = append(e.links, shadowLink{fieldID: fieldID, target: target})
}

// setSlot records a journaled array element store.
func (e *shadowEntity) setSlot(idx int, s shadowSlot) error {
	if idx >= e.capacity {
		return corruptf("store index %d beyond capacity %d", idx, e.capacity)
	}
	for idx >= len(e.slots) {
		e.slots = append(e.slots, shadowSlot{})
	}
	e.slots[idx] = s
	return nil
}

// ForEachRef implements events.Entity. Visit order is first-put order for
// objects and slot order for arrays; downstream consumers treat successor
// sets as unordered, so this matches the live heap's traversal semantics.
func (e *shadowEntity) ForEachRef(visit func(fieldID int, target events.Entity)) {
	if !e.array {
		for _, l := range e.links {
			if l.target != nil {
				visit(l.fieldID, l.target)
			}
		}
		return
	}
	if e.mode == events.ElemModeVal {
		return
	}
	for _, s := range e.slots {
		if s.kind == slotRef {
			visit(-1, s.ref)
		}
	}
}

// ForEachElemKey implements events.Entity, reproducing each ElemMode's live
// key sequence: reference arrays skip empty slots, primitive arrays visit
// every slot (unwritten slots as 0), and auto-mode arrays visit whatever a
// slot holds.
func (e *shadowEntity) ForEachElemKey(visit func(key events.ElemKey)) {
	if !e.array {
		return
	}
	if e.mode == events.ElemModeVal {
		for i := 0; i < e.capacity; i++ {
			if i < len(e.slots) && e.slots[i].kind == slotInt {
				visit(e.slots[i].i)
				continue
			}
			visit(int64(0))
		}
		return
	}
	for _, s := range e.slots {
		switch s.kind {
		case slotRef:
			visit(events.RefKey(s.ref.id))
		case slotStr:
			visit(s.s)
		case slotInt:
			if e.mode == events.ElemModeAuto {
				visit(s.i)
			}
		}
	}
}

var _ events.Entity = (*shadowEntity)(nil)

// shadowHeap resolves record entity ids to shadow entities during replay.
// A VM thread numbers its entities consecutively from its span's base
// (tid<<events.SpanShift), and the journal records every birth in that
// order, so a trace's own entities fill a dense slice per span, grown only
// by appending the span's next id: resolving one is a bounds check and a
// load. Every other id — a stand-in for another thread's entity, an id a
// hand-crafted trace made up — lives in a map, so the heap's memory stays
// proportional to the records decoded whatever ids a trace carries. The
// zero value is an empty heap.
type shadowHeap struct {
	spans []heapSpan
	other map[int64]*shadowEntity
}

// heapSpan is one span's dense run of entities: ents[i] has id base+i.
type heapSpan struct {
	base int64
	ents []*shadowEntity
}

// maxHeapSpans bounds the dense spans one heap opens, and with them the
// scan every lookup makes. A trace journals the births of one thread, so
// real traces open one; births in further spans go to the map.
const maxHeapSpans = 4

// find returns the entity id resolves to, or nil.
func (h *shadowHeap) find(id int64) *shadowEntity {
	for i := range h.spans {
		s := &h.spans[i]
		if off := uint64(id - s.base); off < uint64(len(s.ents)) {
			return s.ents[off]
		}
	}
	return h.other[id]
}

// put binds id to e, replacing whatever id resolved to before.
func (h *shadowHeap) put(id int64, e *shadowEntity) {
	if !h.putDense(id, e) {
		h.putOther(id, e)
		return
	}
	// id is dense now; drop a stand-in made before its birth.
	if len(h.other) > 0 {
		delete(h.other, id)
	}
}

// putDense binds id in its span's dense slice when id lies in it or is the
// span's next id, opening the span at id if it has none yet, and reports
// whether it did.
func (h *shadowHeap) putDense(id int64, e *shadowEntity) bool {
	for i := range h.spans {
		s := &h.spans[i]
		if s.base>>events.SpanShift != id>>events.SpanShift {
			continue
		}
		switch off := id - s.base; {
		case uint64(off) < uint64(len(s.ents)):
			s.ents[off] = e
		case off == int64(len(s.ents)):
			s.ents = append(s.ents, e)
		default:
			return false
		}
		return true
	}
	if len(h.spans) == maxHeapSpans {
		return false
	}
	h.spans = append(h.spans, heapSpan{base: id, ents: []*shadowEntity{e}})
	return true
}

func (h *shadowHeap) putOther(id int64, e *shadowEntity) {
	if h.other == nil {
		h.other = map[int64]*shadowEntity{}
	}
	h.other[id] = e
}

// alloc materializes the shadow of a journaled allocation.
func (h *shadowHeap) alloc(id int64, classID int, capacity int, mode events.ElemMode, typeName string) (*shadowEntity, error) {
	if capacity > maxCapacity {
		return nil, corruptf("entity capacity %d exceeds limit", capacity)
	}
	e := &shadowEntity{
		id:       uint64(id),
		typeName: typeName,
		classID:  classID,
		array:    classID < 0,
		capacity: capacity,
		mode:     mode,
	}
	h.put(id, e)
	return e, nil
}

// get resolves an entity id; 0 is the nil entity. Ids never journaled
// (another thread's entities, or ids in hand-crafted traces) resolve to an
// empty auto-mode stand-in rather than failing, so damaged traces still
// replay as far as their records allow.
func (h *shadowHeap) get(id int64) *shadowEntity {
	if id == 0 {
		return nil
	}
	if e := h.find(id); e != nil {
		return e
	}
	e := &shadowEntity{id: uint64(id), typeName: "?", classID: -1, array: true, mode: events.ElemModeAuto}
	h.putOther(id, e)
	return e
}

// ent adapts a shadow entity to the events.Entity interface value stored in
// a record, keeping nil interface values for the nil entity.
func ent(e *shadowEntity) events.Entity {
	if e == nil {
		return nil
	}
	return e
}

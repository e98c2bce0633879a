package events

import (
	"cmp"
	"slices"
)

// Table maps entity ids to values of type T, held in dense slices where
// the ids are dense. A VM thread numbers its entities consecutively from
// its span's base (see SpanShift), so the table keeps a base-offset slice
// per span: the live range [base, base+len) of each stays compact, and
// indexing replaces a map lookup with a bounds check and an array access.
//
// Memory follows the ids stored, never their values. A table opens at
// most maxSpans spans, and a span grows to a new id only while its length
// stays within spanMultiple slots for each id that has extended it, plus
// spanFloor. Every other id, such as a fifth thread's or one a damaged
// trace made up, lives in a map. Each id lives in exactly one place: a
// span that extends over ids the map holds takes them in. Live runs stay in
// their spans. The zero value is an empty table.
type Table[T any] struct {
	tableSpan[T]               // the span of the first id stored
	rest         *tableRest[T] // nil while the first span holds every id
}

// tableRest is a table past its first span.
type tableRest[T any] struct {
	more  []tableSpan[T] // every other span, in first-use order
	other map[uint64]*T  // the ids no span covers
}

type tableSpan[T any] struct {
	base  uint64
	slots []T
	ext   uint64 // the ids that have extended the span, its first included
}

const (
	// maxSpans bounds the spans a table opens, and with them the scan a
	// lookup outside the first span makes. A live table meets the span of
	// its own thread and at most that of the thread whose structures it
	// reads.
	maxSpans = 4
	// spanMultiple and spanFloor bound a span's length by the ids that
	// extended it. The floor holds every table of the digest corpus and of
	// the benchmark's mixes in its spans, so the slot counts a registry
	// reports are those of a table without the bound.
	spanMultiple = 8
	spanFloor    = 1 << 16
)

// Slot returns a pointer to id's slot, adding the slot if id has none:
// it extends id's span to cover id, or stores id in the map. The pointer
// is valid until the next Slot call.
func (t *Table[T]) Slot(id uint64) *T {
	off := id - t.base
	if off < uint64(len(t.slots)) {
		return &t.slots[off]
	}
	if off == uint64(len(t.slots)) && off < uint64(cap(t.slots)) && t.rest == nil && id>>SpanShift == t.base>>SpanShift {
		// The first span's next id, the usual extension: it keeps the
		// span within its bound, and no map holds an id to take in.
		t.ext++
		t.slots = t.slots[:off+1]
		return &t.slots[off]
	}
	if t.rest != nil {
		if p := t.rest.peek(id); p != nil {
			return p
		}
	}
	s := &t.tableSpan
	if t.slots != nil && t.base>>SpanShift != id>>SpanShift {
		if s = t.otherSpan(id); s == nil {
			return t.put(id)
		}
	}
	return t.extend(s, id)
}

// extend grows s, one of t's spans, to cover id and returns id's slot, or
// stores id in the map when the span may not reach it. The ids the map
// holds in the range s grows over move into s.
func (t *Table[T]) extend(s *tableSpan[T], id uint64) *T {
	if s.slots == nil {
		s.base, s.slots, s.ext = id, make([]T, 1, 64), 1
		return &s.slots[0]
	}
	lo, hi := s.base, s.base+uint64(len(s.slots))
	last := id - lo // the offset of the span's last slot once it covers id
	if id < lo {
		last = hi - 1 - id
	}
	if last >= spanMultiple*(s.ext+1)+spanFloor {
		return t.put(id)
	}
	s.ext++
	if id < lo {
		grown := make([]T, last+1)
		copy(grown[lo-id:], s.slots)
		s.slots, s.base = grown, id
		t.adopt(s, id, lo)
		return &s.slots[0]
	}
	if last < uint64(cap(s.slots)) {
		// Spans only grow, so capacity beyond len has never held data
		// and is still zeroed.
		s.slots = s.slots[:last+1]
	} else {
		grown := make([]T, last+1, max(2*uint64(cap(s.slots)), last+1))
		copy(grown, s.slots)
		s.slots = grown
	}
	t.adopt(s, hi, id)
	return &s.slots[last]
}

// otherSpan returns id's span past the first, opening it while the table
// has fewer than maxSpans, or nil.
func (t *Table[T]) otherSpan(id uint64) *tableSpan[T] {
	if t.rest == nil {
		t.rest = &tableRest[T]{}
	}
	r := t.rest
	for i := range r.more {
		if r.more[i].base>>SpanShift == id>>SpanShift {
			return &r.more[i]
		}
	}
	if len(r.more) == maxSpans-1 {
		return nil
	}
	r.more = append(r.more, tableSpan[T]{})
	return &r.more[len(r.more)-1]
}

// put adds id's slot to the map.
func (t *Table[T]) put(id uint64) *T {
	if t.rest == nil {
		t.rest = &tableRest[T]{}
	}
	if t.rest.other == nil {
		t.rest.other = map[uint64]*T{}
	}
	p := new(T)
	t.rest.other[id] = p
	return p
}

// adopt moves the ids the map holds in [lo, hi) into s, which covers
// them.
func (t *Table[T]) adopt(s *tableSpan[T], lo, hi uint64) {
	if t.rest == nil || len(t.rest.other) == 0 {
		return
	}
	for id := lo; id < hi; id++ {
		if p, ok := t.rest.other[id]; ok {
			s.slots[id-s.base] = *p
			delete(t.rest.other, id)
		}
	}
}

// Peek returns a pointer to id's slot, or nil when id has none.
func (t *Table[T]) Peek(id uint64) *T {
	if off := id - t.base; off < uint64(len(t.slots)) {
		return &t.slots[off]
	}
	if t.rest == nil {
		return nil
	}
	return t.rest.peek(id)
}

// peek is Peek past the first span.
func (r *tableRest[T]) peek(id uint64) *T {
	for _, s := range r.more {
		if off := id - s.base; off < uint64(len(s.slots)) {
			return &s.slots[off]
		}
	}
	return r.other[id]
}

// Len returns the number of slots the table holds.
func (t *Table[T]) Len() int {
	n := len(t.slots)
	if t.rest != nil {
		n += len(t.rest.other)
		for _, s := range t.rest.more {
			n += len(s.slots)
		}
	}
	return n
}

// Each calls f for every slot in ascending id order.
func (t *Table[T]) Each(f func(id uint64, v *T)) {
	r := t.rest
	if r == nil {
		r = &tableRest[T]{}
	}
	spans := append([]tableSpan[T]{t.tableSpan}, r.more...)
	slices.SortFunc(spans, func(a, b tableSpan[T]) int { return cmp.Compare(a.base, b.base) })
	ids := make([]uint64, 0, len(r.other))
	for id := range r.other {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, s := range spans {
		for ; len(ids) > 0 && ids[0] < s.base; ids = ids[1:] {
			f(ids[0], r.other[ids[0]])
		}
		for off := range s.slots {
			f(s.base+uint64(off), &s.slots[off])
		}
	}
	for _, id := range ids {
		f(id, r.other[id])
	}
}

package core

// This file removes per-event map hashing from the profiler's consumer hot
// path. CostKeys are interned into a dense id table per profiler, and each
// invocation accumulates counts in a small vector indexed by interned id;
// the familiar map[CostKey]int64 views are materialized only at report
// time. Storage of dropped invocations is recycled through free lists.

const numCostOps = int(OpOut) + 1

// costInterner assigns dense ids to CostKeys. The untyped keys that
// dominate the event stream (cost{STEP}, cost{input#n, LOAD}, ...) resolve
// through a per-op slice indexed by input id, so the hot path does not even
// hash: only first-sighting and typed keys touch the map.
type costInterner struct {
	ids  map[CostKey]int32
	keys []CostKey
	// untyped[op][input+1] is the interned id + 1 of the untyped key
	// (op, input); 0 means not yet interned. Index 0 is NoInput.
	untyped [numCostOps][]int32

	// Typed keys resolve without hashing the type string: type names are
	// interned to dense ids once (typeID, cached by the call sites), and
	// typed[op][input+1][typeID] holds the cost id + 1.
	typeIDs   map[string]int32
	typeNames []string
	typed     [numCostOps][][]int32
}

func newCostInterner() *costInterner {
	return &costInterner{
		ids:     make(map[CostKey]int32, 64),
		typeIDs: make(map[string]int32, 16),
	}
}

// typeID interns a type name to a dense id. This hashes the string; call
// sites cache the result (per field id, per entity) so the event hot path
// resolves typed keys through typedID without hashing.
func (ci *costInterner) typeID(name string) int32 {
	if id, ok := ci.typeIDs[name]; ok {
		return id
	}
	id := int32(len(ci.typeNames))
	ci.typeIDs[name] = id
	ci.typeNames = append(ci.typeNames, name)
	return id
}

// typedID returns the cost id for (op, input, type) with the type given as
// an interned type id: three array indexings on the hot path.
func (ci *costInterner) typedID(op CostOp, input int, tid int32) int32 {
	slot := input + 1 // NoInput == -1 maps to slot 0
	if rows := ci.typed[op]; slot < len(rows) {
		if row := rows[slot]; int(tid) < len(row) {
			if v := row[tid]; v != 0 {
				return v - 1
			}
		}
	}
	id := ci.id(CostKey{Op: op, Input: input, Type: ci.typeNames[tid]})
	rows := ci.typed[op]
	if slot >= len(rows) {
		rows = append(rows, make([][]int32, slot+1-len(rows))...)
	}
	row := rows[slot]
	if int(tid) >= len(row) {
		row = append(row, make([]int32, int(tid)+1-len(row))...)
	}
	row[tid] = id + 1
	rows[slot] = row
	ci.typed[op] = rows
	return id
}

// id interns k, assigning the next dense id on first sight.
func (ci *costInterner) id(k CostKey) int32 {
	slot := k.Input + 1 // NoInput == -1 maps to slot 0
	if k.Type == "" && slot >= 0 {
		if row := ci.untyped[k.Op]; slot < len(row) {
			if v := row[slot]; v != 0 {
				return v - 1
			}
		}
	}
	id, ok := ci.ids[k]
	if !ok {
		id = int32(len(ci.keys))
		ci.ids[k] = id
		ci.keys = append(ci.keys, k)
	}
	if k.Type == "" && slot >= 0 {
		row := ci.untyped[k.Op]
		for len(row) <= slot {
			row = append(row, 0)
		}
		row[slot] = id + 1
		ci.untyped[k.Op] = row
	}
	return id
}

// lookup returns k's id without interning it.
func (ci *costInterner) lookup(k CostKey) (int32, bool) {
	id, ok := ci.ids[k]
	return id, ok
}

// costVecLinear is the cell count past which a costVec builds a spill
// index; a typical invocation touches only a handful of distinct keys.
const costVecLinear = 12

type costCell struct {
	id int32
	n  int64
}

// costVec accumulates counts by interned key id, preserving
// first-recorded order. Small vectors (the common case) use a linear scan;
// outliers get a position index.
type costVec struct {
	cells []costCell
	idx   map[int32]int32 // id -> cells position; nil until needed
}

func (v *costVec) add(id int32, n int64) {
	if v.idx != nil {
		if pos, ok := v.idx[id]; ok {
			v.cells[pos].n += n
			return
		}
		v.idx[id] = int32(len(v.cells))
		v.cells = append(v.cells, costCell{id, n})
		return
	}
	for i := range v.cells {
		if v.cells[i].id == id {
			v.cells[i].n += n
			return
		}
	}
	v.cells = append(v.cells, costCell{id, n})
	if len(v.cells) > costVecLinear {
		v.idx = make(map[int32]int32, 2*len(v.cells))
		for i := range v.cells {
			v.idx[v.cells[i].id] = int32(i)
		}
	}
}

func (v *costVec) get(id int32) int64 {
	if v.idx != nil {
		if pos, ok := v.idx[id]; ok {
			return v.cells[pos].n
		}
		return 0
	}
	for i := range v.cells {
		if v.cells[i].id == id {
			return v.cells[i].n
		}
	}
	return 0
}

// reset empties the vector, keeping the cell storage for reuse.
func (v *costVec) reset() {
	v.cells = v.cells[:0]
	v.idx = nil
}

// materialize builds the report-time map view.
func (v *costVec) materialize(keys *costInterner) map[CostKey]int64 {
	m := make(map[CostKey]int64, len(v.cells))
	for _, c := range v.cells {
		m[keys.keys[c.id]] = c.n
	}
	return m
}

// newInvocation takes an invocation shell from the free list, or allocates.
func (p *Profiler) newInvocation(index, parentIndex int) *invocation {
	if n := len(p.invFree); n > 0 {
		inv := p.invFree[n-1]
		p.invFree = p.invFree[:n-1]
		inv.index = index
		inv.parentIndex = parentIndex
		return inv
	}
	return &invocation{index: index, parentIndex: parentIndex}
}

// recycle returns a finished invocation's storage to the free lists.
// History records take exact-size copies of the cost cells and size
// entries, so every piece of scratch storage is reclaimed unconditionally.
func (p *Profiler) recycle(inv *invocation) {
	inv.costs.reset()
	inv.sizes = inv.sizes[:0]
	inv.touched = inv.touched[:0]
	inv.siteRes = inv.siteRes[:0]
	p.freePending(inv)
	p.invFree = append(p.invFree, inv)
}

// freePending returns the invocation's pending groups to the free list.
func (p *Profiler) freePending(inv *invocation) {
	for _, g := range inv.pending {
		g.costs.reset()
		g.first, g.last = nil, nil
		p.pgFree = append(p.pgFree, g)
	}
	inv.pending = inv.pending[:0]
}

// newPendingGroup takes a pending group from the free list, or allocates.
func (p *Profiler) newPendingGroup() *pendingGroup {
	if n := len(p.pgFree); n > 0 {
		g := p.pgFree[n-1]
		p.pgFree = p.pgFree[:n-1]
		return g
	}
	return &pendingGroup{}
}

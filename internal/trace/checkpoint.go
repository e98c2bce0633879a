package trace

import (
	"cmp"
	"slices"

	"algoprof/internal/events"
	"algoprof/internal/events/pipeline"
)

// The writer mirrors the reader's shadow heap so it can serialize the full
// heap state at frame boundaries into checkpoint frames. applyRecord makes
// exactly the mutations (and stand-in materializations) the reader's
// bindBody makes — it IS bindBody, run on a copy so the live record's
// E1/E2 (real pipeline entities) are not clobbered with shadows — so a heap
// restored from a checkpoint is structurally identical to the heap a
// sequential replay holds at that boundary.
func (h *shadowHeap) applyRecord(r *pipeline.Record) error {
	c := *r
	return bindBody(h, &c)
}

// encodeCheckpoint serializes the heap into a checkpoint frame payload:
// the tag, then every entity's identity (sorted by id, so the bytes are
// deterministic and Merkle-stable), then every entity's links and touched
// slots. Identities come first so links and ref slots can resolve forward
// references on decode.
func encodeCheckpoint(h *shadowHeap) []byte {
	all := make([]*shadowEntity, 0, h.len())
	for _, s := range h.spans {
		all = append(all, s.ents...)
	}
	for _, e := range h.other {
		all = append(all, e)
	}
	slices.SortFunc(all, func(a, b *shadowEntity) int { return cmp.Compare(int64(a.id), int64(b.id)) })

	b := []byte{tagCheckpoint}
	b = putUvarint(b, uint64(len(all)))
	for _, e := range all {
		b = putUvarint(b, e.id)
		b = putVarint(b, int64(e.classID))
		b = putUvarint(b, uint64(e.capacity))
		b = append(b, byte(e.mode))
		b = putUvarint(b, uint64(len(e.typeName)))
		b = append(b, e.typeName...)
	}
	for _, e := range all {
		b = putUvarint(b, uint64(len(e.links)))
		for _, l := range e.links {
			b = putUvarint(b, uint64(l.fieldID))
			if l.target != nil {
				b = putUvarint(b, l.target.id)
			} else {
				b = putUvarint(b, 0)
			}
		}
		b = putUvarint(b, uint64(len(e.slots)))
		for _, s := range e.slots {
			b = append(b, s.kind)
			switch s.kind {
			case slotInt:
				b = putVarint(b, s.i)
			case slotStr:
				b = putUvarint(b, uint64(len(s.s)))
				b = append(b, s.s...)
			case slotRef:
				b = putUvarint(b, s.ref.id)
			}
		}
	}
	return b
}

// decodeCheckpoint rebuilds a shadow heap from a checkpoint frame payload
// (tag already verified by the caller). Every read is bounds-checked; any
// damage yields a typed *CorruptError, never a panic.
func decodeCheckpoint(b []byte) (*shadowHeap, error) {
	pos := 1 // past tagCheckpoint
	n, pos, err := readUint(b, pos, 1<<32, "checkpoint entity count")
	if err != nil {
		return nil, err
	}
	h := &shadowHeap{}
	// An entity takes at least 7 bytes: five one-byte identity fields,
	// then its link and slot counts.
	order := make([]*shadowEntity, 0, capFor(n, b, pos, 7))
	for i := 0; i < n; i++ {
		var id uint64
		if id, pos, err = readUvarint(b, pos); err != nil {
			return nil, err
		}
		var classID int64
		if classID, pos, err = readVarint(b, pos); err != nil {
			return nil, err
		}
		var capacity int
		if capacity, pos, err = readUint(b, pos, maxCapacity+1, "checkpoint capacity"); err != nil {
			return nil, err
		}
		var mode byte
		if mode, pos, err = readByte(b, pos); err != nil {
			return nil, err
		}
		if mode > uint8(events.ElemModeVal) {
			return nil, corruptf("checkpoint entity %d: bad element mode %d", id, mode)
		}
		var nameLen int
		if nameLen, pos, err = readUint(b, pos, maxFramePayload, "checkpoint name length"); err != nil {
			return nil, err
		}
		if pos+nameLen > len(b) {
			return nil, corruptf("truncated checkpoint type name at %d", pos)
		}
		e := &shadowEntity{
			id:       id,
			typeName: string(b[pos : pos+nameLen]),
			classID:  int(classID),
			array:    classID < 0,
			capacity: capacity,
			mode:     events.ElemMode(mode),
		}
		pos += nameLen
		if h.find(int64(id)) != nil {
			return nil, corruptf("checkpoint entity %d defined twice", id)
		}
		h.put(int64(id), e)
		order = append(order, e)
	}
	// resolve maps a stored target id to its entity; 0 is nil, and ids the
	// checkpoint does not define are corruption (the writer serialized
	// every live entity).
	resolve := func(id uint64) (*shadowEntity, error) {
		if id == 0 {
			return nil, nil
		}
		e := h.find(int64(id))
		if e == nil {
			return nil, corruptf("checkpoint references undefined entity %d", id)
		}
		return e, nil
	}
	for _, e := range order {
		var nLinks int
		if nLinks, pos, err = readUint(b, pos, uint64(maxCapacity+1), "checkpoint link count"); err != nil {
			return nil, err
		}
		for j := 0; j < nLinks; j++ {
			var fieldID int
			if fieldID, pos, err = readUint(b, pos, 1<<31, "checkpoint field id"); err != nil {
				return nil, err
			}
			var tid uint64
			if tid, pos, err = readUvarint(b, pos); err != nil {
				return nil, err
			}
			tgt, rerr := resolve(tid)
			if rerr != nil {
				return nil, rerr
			}
			// Append directly: the writer serialized links in first-put
			// order with unique field ids, so setLink's scan is redundant —
			// but keep its semantics for malformed input.
			e.setLink(fieldID, tgt)
		}
		var nSlots int
		if nSlots, pos, err = readUint(b, pos, uint64(e.capacity)+1, "checkpoint slot count"); err != nil {
			return nil, err
		}
		// Every slot takes at least its kind byte.
		if nSlots > len(b)-pos {
			return nil, corruptf("checkpoint slot count %d exceeds the %d bytes left", nSlots, len(b)-pos)
		}
		e.slots = make([]shadowSlot, nSlots)
		for j := 0; j < nSlots; j++ {
			var kind byte
			if kind, pos, err = readByte(b, pos); err != nil {
				return nil, err
			}
			switch kind {
			case slotUnset:
			case slotInt:
				if e.slots[j].i, pos, err = readVarint(b, pos); err != nil {
					return nil, err
				}
			case slotStr:
				var sl int
				if sl, pos, err = readUint(b, pos, maxFramePayload, "checkpoint string length"); err != nil {
					return nil, err
				}
				if pos+sl > len(b) {
					return nil, corruptf("truncated checkpoint string at %d", pos)
				}
				e.slots[j].s = string(b[pos : pos+sl])
				pos += sl
			case slotRef:
				var tid uint64
				if tid, pos, err = readUvarint(b, pos); err != nil {
					return nil, err
				}
				tgt, rerr := resolve(tid)
				if rerr != nil {
					return nil, rerr
				}
				if tgt == nil {
					return nil, corruptf("checkpoint ref slot with nil target")
				}
				e.slots[j].ref = tgt
			default:
				return nil, corruptf("checkpoint slot kind %d unknown", kind)
			}
			e.slots[j].kind = kind
		}
	}
	if pos != len(b) {
		return nil, corruptf("checkpoint has %d trailing bytes", len(b)-pos)
	}
	return h, nil
}

package events

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// TestTableSpans: ids of two threads' spans, 2^40 apart, each get a dense
// run of their own — the table holds as many slots as a one-thread table
// would for the same ids, in whichever order the spans first appear —
// and Each visits every slot in ascending id order.
func TestTableSpans(t *testing.T) {
	main := func(k uint64) uint64 { return 1 + k }
	thread := func(k uint64) uint64 { return 1<<SpanShift + 1 + k }
	for _, threadFirst := range []bool{false, true} {
		var tb Table[uint64]
		ids := []uint64{main(0), main(1), main(2), thread(0), thread(1)}
		if threadFirst {
			ids = []uint64{thread(0), thread(1), main(0), main(1), main(2)}
		}
		for _, id := range ids {
			*tb.Slot(id) = id
		}
		if n := tb.Len(); n != len(ids) {
			t.Fatalf("threadFirst=%v: Len = %d, want %d", threadFirst, n, len(ids))
		}
		for _, id := range ids {
			if p := tb.Peek(id); p == nil || *p != id {
				t.Fatalf("threadFirst=%v: Peek(%d) = %v", threadFirst, id, p)
			}
		}
		if p := tb.Peek(thread(5)); p != nil {
			t.Fatalf("threadFirst=%v: Peek of an id never stored = %d", threadFirst, *p)
		}
		var got []uint64
		tb.Each(func(id uint64, v *uint64) {
			if *v != id {
				t.Fatalf("slot %d holds %d", id, *v)
			}
			got = append(got, id)
		})
		want := []uint64{main(0), main(1), main(2), thread(0), thread(1)}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("threadFirst=%v: Each visited %v, want %v", threadFirst, got, want)
		}
		// A lower id in a span shifts that span's base down, as before.
		*tb.Slot(thread(0) - 1) = 7
		if n := tb.Len(); n != len(ids)+1 {
			t.Fatalf("threadFirst=%v: Len after a lower id = %d, want %d", threadFirst, n, len(ids)+1)
		}
	}
}

// checkTable requires tb to hold exactly want, visited by Each in
// ascending id order, with Len counting one slot per id: no id may
// stretch a span toward its value.
func checkTable(t *testing.T, what string, tb *Table[uint64], want map[uint64]uint64) {
	t.Helper()
	if n := tb.Len(); n != len(want) {
		t.Fatalf("%s: Len = %d, want %d", what, n, len(want))
	}
	var got []uint64
	tb.Each(func(id uint64, v *uint64) {
		if *v != want[id] {
			t.Fatalf("%s: Each gives id %d the value %d, want %d", what, id, *v, want[id])
		}
		got = append(got, id)
	})
	if !slices.IsSorted(got) || len(got) != len(want) {
		t.Fatalf("%s: Each visited %d ids out of order or more than once", what, len(got))
	}
	for id, v := range want {
		if p := tb.Peek(id); p == nil || *p != v {
			t.Fatalf("%s: Peek(%d) = %v, want %d", what, id, p, v)
		}
	}
}

// TestTableBound: ids far apart in one span, and ids in more spans than a
// table opens, cost one slot each; a span that later grows over ids the
// map holds takes them in, keeping their values and each id in one place.
func TestTableBound(t *testing.T) {
	var far Table[uint64]
	want := map[uint64]uint64{}
	for _, id := range []uint64{1, 1 + 1<<24, 1 + 1<<38} {
		*far.Slot(id), want[id] = id, id
	}
	checkTable(t, "ids 2^24 apart", &far, want)

	var spans Table[uint64]
	want = map[uint64]uint64{}
	rng := rand.New(rand.NewPCG(1, 2))
	for k := range 10_000 {
		id := uint64(k)<<SpanShift + 1 + rng.Uint64N(1<<SpanShift-1)
		*spans.Slot(id), want[id] = id, id
	}
	if len(spans.rest.more) != maxSpans-1 {
		t.Fatalf("10 000 spans: opened %d, want %d", 1+len(spans.rest.more), maxSpans)
	}
	checkTable(t, "10 000 spans", &spans, want)

	// Ids the span may not reach yet go to the map; ids spanMultiple
	// apart then extend the span over them.
	var adopt Table[uint64]
	want = map[uint64]uint64{}
	mid, top := uint64(1+spanFloor+64), uint64(1+2*spanFloor)
	for _, id := range []uint64{1, mid, top} {
		*adopt.Slot(id), want[id] = id, id
	}
	if len(adopt.rest.other) != 2 {
		t.Fatalf("map holds %d ids before the span grows, want 2", len(adopt.rest.other))
	}
	for id := uint64(1 + spanMultiple); id <= top+spanMultiple; id += spanMultiple {
		if _, ok := want[id]; !ok {
			*adopt.Slot(id), want[id] = id, id
		}
	}
	if len(adopt.rest.other) != 0 || adopt.Peek(mid) != &adopt.slots[mid-1] || adopt.Peek(top) != &adopt.slots[top-1] {
		t.Fatalf("the span grew over the map's ids, but the map still holds %d", len(adopt.rest.other))
	}
	visited := 0
	adopt.Each(func(id uint64, v *uint64) {
		if *v != want[id] {
			t.Fatalf("id %d holds %d after the span grew, want %d", id, *v, want[id])
		}
		visited++
	})
	if visited != adopt.Len() || visited != len(adopt.slots) {
		t.Fatalf("Each visited %d slots; Len %d, span %d", visited, adopt.Len(), len(adopt.slots))
	}
}

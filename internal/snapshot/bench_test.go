package snapshot

import (
	"fmt"
	"testing"

	"algoprof/internal/events"
)

// BenchmarkObserveWrittenStringArray re-observes a 128-slot String[] array
// after one slot is written: the write invalidates the array's memo entry,
// so every observation re-walks all 128 string elements, identifies the
// array by them and claims them. Written values cycle through 256 strings,
// so after warm-up every string already has an owner.
func BenchmarkObserveWrittenStringArray(b *testing.B) {
	const slots = 128
	strs := make([]events.ElemKey, 2*slots)
	for i := range strs {
		strs[i] = fmt.Sprintf("s%d", i)
	}
	for _, strat := range []Strategy{Capacity, UniqueElements} {
		b.Run(strat.String(), func(b *testing.B) {
			arr := &fakeArr{id: 1, typ: "String[]", cap: slots,
				keys: append([]events.ElemKey(nil), strs[:slots]...)}
			r := NewRegistry(rt(0), strat)
			r.Observe(arr)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arr.keys[i%slots] = strs[(i+slots)%len(strs)]
				r.NoteWriteTo(arr)
				r.Observe(arr)
			}
		})
	}
}

// BenchmarkObserveFreshPrefix observes a fresh 4-node list prefix whose
// tail links into a known 64-node list, as an immutable list's cons does:
// the prefix's root is unclaimed, so no memo entry can serve it, and the
// traversal reaches the whole known list before joining its input. The
// registry is rebuilt (off the clock) every 1024 observations so its
// entity tables stay small.
func BenchmarkObserveFreshPrefix(b *testing.B) {
	const known, prefix = 64, 4
	head, _ := list(1, known)
	nodes := make([]*fakeObj, prefix)
	for i := range nodes {
		nodes[i] = &fakeObj{typ: "Node"}
	}
	for i := 0; i+1 < prefix; i++ {
		nodes[i].refs = []ref{{0, nodes[i+1]}}
	}
	nodes[prefix-1].refs = []ref{{0, head}}
	var r *Registry
	var next uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			b.StopTimer()
			r = NewRegistry(rt(1, 0), Capacity)
			r.Observe(head)
			next = 1000
			b.StartTimer()
		}
		for j, n := range nodes {
			n.id = next + uint64(j)
		}
		next += prefix
		r.Observe(nodes[0])
	}
}

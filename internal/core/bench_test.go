package core

import "testing"

// benchKeys is a realistic per-invocation working set: a step counter plus
// a handful of per-input access counters, as a hot loop body produces.
func benchKeys() []CostKey {
	return []CostKey{
		{Op: OpStep, Input: NoInput},
		{Op: OpGet, Input: 3},
		{Op: OpPut, Input: 3},
		{Op: OpGet, Input: 7},
		{Op: OpArrLoad, Input: 11},
		{Op: OpArrStore, Input: 11},
	}
}

// BenchmarkCostMapIncrement is the pre-interning baseline: every count
// hashes a full CostKey into a map.
func BenchmarkCostMapIncrement(b *testing.B) {
	keys := benchKeys()
	m := map[CostKey]int64{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m[keys[i%len(keys)]]++
	}
}

// BenchmarkInternedIncrement is the interned-counter path: keys are
// interned once, per-invocation counts are a dense-cell add by ID.
func BenchmarkInternedIncrement(b *testing.B) {
	in := newCostInterner()
	keys := benchKeys()
	ids := make([]int32, len(keys))
	for i, k := range keys {
		ids[i] = in.id(k)
	}
	var v costVec
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.add(ids[i%len(ids)], 1)
	}
}

// BenchmarkInternLookup measures the emit-time key→ID resolution that
// replaces map hashing on the profiler's event path.
func BenchmarkInternLookup(b *testing.B) {
	in := newCostInterner()
	keys := benchKeys()
	for _, k := range keys {
		in.id(k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.id(keys[i%len(keys)])
	}
}

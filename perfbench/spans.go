package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function; the program itself carries no timers.
type span struct {
	name       string
	pass       int           // the pass (or job loop) the call belongs to
	start, end time.Duration // on the monotonic clock, since the tracer began
	allocBytes float64       // heap bytes allocated during the call
}

// pass is one traced unit of work: its wall-clock interval and the work
// counts its layers reported.
type pass struct {
	start, end time.Duration
	counts     map[string]float64
}

// tracer keeps spans in memory until the run ends. A nil *tracer runs
// every call untimed, so traced and untraced code paths are the same code.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex // guards spans: daemon clients add job spans concurrently
	spans  []span
	passes []pass
	gc0    gcState
	gc1    gcState
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), gc0: readGC()}
}

func (t *tracer) now() time.Duration { return time.Since(t.t0) }

func (t *tracer) beginPass() {
	if t != nil {
		t.passes = append(t.passes, pass{start: t.now(), counts: map[string]float64{}})
	}
}

func (t *tracer) endPass() {
	if t != nil {
		t.passes[len(t.passes)-1].end = t.now()
		t.gc1 = readGC()
	}
}

// count adds v to the current pass's named work count.
func (t *tracer) count(name string, v float64) {
	if t != nil && len(t.passes) > 0 {
		t.passes[len(t.passes)-1].counts[name] += v
	}
}

// call runs f inside a span named name. Spans of one goroutine do not
// nest.
func (t *tracer) call(name string, f func() error) error {
	if t == nil {
		return f()
	}
	a0 := heapAllocBytes()
	s := t.now()
	err := f()
	e := t.now()
	t.add(span{name: name, pass: len(t.passes) - 1, start: s, end: e, allocBytes: heapAllocBytes() - a0})
	return err
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// perPass returns, for every pass that recorded spans named name (every
// pass, for name ""), f's value over that pass's spans.
func (t *tracer) perPass(name string, f func(p pass, spans []span) float64) []float64 {
	byPass := make([][]span, len(t.passes))
	has := make([]bool, len(t.passes))
	for _, s := range t.spans {
		if s.pass >= 0 && s.pass < len(byPass) {
			byPass[s.pass] = append(byPass[s.pass], s)
			has[s.pass] = has[s.pass] || s.name == name
		}
	}
	var out []float64
	for i, p := range t.passes {
		if name == "" || has[i] {
			out = append(out, f(p, byPass[i]))
		}
	}
	return out
}

// spanMs is the median, over the passes that call the layer, of the
// summed duration of spans named name, in milliseconds.
func (t *tracer) spanMs(name string) float64 {
	return median(t.perPass(name, func(_ pass, spans []span) float64 {
		d := 0.0
		for _, s := range spans {
			if s.name == name {
				d += ms(s.end - s.start)
			}
		}
		return d
	}))
}

// allocMB is the median, over the passes that call the layer, of the heap
// bytes allocated inside spans named name, in megabytes.
func (t *tracer) allocMB(name string) float64 {
	return median(t.perPass(name, func(_ pass, spans []span) float64 {
		b := 0.0
		for _, s := range spans {
			if s.name == name {
				b += s.allocBytes
			}
		}
		return b / 1e6
	}))
}

// countMedian is the median of a named work count over the passes that
// reported it.
func (t *tracer) countMedian(name string) float64 {
	var xs []float64
	for _, p := range t.passes {
		if v, ok := p.counts[name]; ok {
			xs = append(xs, v)
		}
	}
	return median(xs)
}

// coverage is the median over passes of the share of the pass's wall
// time that the union of its spans covers.
func (t *tracer) coverage() float64 {
	return median(t.perPass("", func(p pass, spans []span) float64 {
		sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		var covered, reach time.Duration
		reach = p.start
		for _, s := range spans {
			start, end := max(s.start, reach), min(s.end, p.end)
			if end > start {
				covered += end - start
				reach = end
			}
		}
		return ratio(float64(covered), float64(p.end-p.start))
	}))
}

// gcPerPass reports garbage collections per traced pass and the share of
// CPU time the collector used over the traced passes.
func (t *tracer) gcPerPass() (cycles, cpuFrac float64) {
	if len(t.passes) == 0 {
		return 0, 0
	}
	cycles = (t.gc1.cycles - t.gc0.cycles) / float64(len(t.passes))
	return cycles, ratio(t.gc1.gcCPU-t.gc0.gcCPU, t.gc1.totalCPU-t.gc0.totalCPU)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapAllocBytes reads the process's cumulative heap allocation. Layer
// calls run on the benchmark's goroutine, so a delta around one call is
// that call's allocation (plus any goroutines the call itself started).
func heapAllocBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

type gcState struct{ cycles, gcCPU, totalCPU float64 }

func readGC() gcState {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcState{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

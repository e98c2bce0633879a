package pipeline

import (
	"testing"

	"algoprof/internal/events"
)

// countingListener is the cheapest possible consumer: one add per event.
type countingListener struct {
	events.NopListener
	n int64
}

func (l *countingListener) LoopBack(int) { l.n++ }

func benchTransport(b *testing.B, cfg Config, consumers int) {
	tp := New(cfg)
	ls := make([]*countingListener, consumers)
	for i := range ls {
		ls[i] = &countingListener{}
		tp.Add("count", ls[i], ConsumerOptions{})
	}
	pr := tp.Producer()
	tp.Start()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.LoopBack(1)
	}
	if err := tp.Close(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	for _, l := range ls {
		if l.n != int64(b.N) {
			b.Fatalf("consumer saw %d of %d events", l.n, b.N)
		}
	}
}

func BenchmarkPublishConsume1(b *testing.B) { benchTransport(b, Config{}, 1) }
func BenchmarkPublishConsume3(b *testing.B) { benchTransport(b, Config{}, 3) }
func BenchmarkSyncFanout1(b *testing.B)     { benchTransport(b, Config{Synchronous: true}, 1) }
func BenchmarkSyncFanout3(b *testing.B)     { benchTransport(b, Config{Synchronous: true}, 3) }
func BenchmarkPublishTinyBuffer(b *testing.B) {
	benchTransport(b, Config{BufferSize: 64}, 2)
}

// BenchmarkBarrier measures the producer-side cost of a heap-write fence
// with one heap-reading consumer, interleaved with regular traffic.
func BenchmarkBarrier(b *testing.B) {
	tp := New(Config{})
	l := &countingListener{}
	tp.Add("heap", l, ConsumerOptions{HeapReader: true})
	pr := tp.Producer()
	tp.Start()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.LoopBack(1)
		pr.Barrier()
	}
	if err := tp.Close(); err != nil {
		b.Fatal(err)
	}
}

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

func benchTransport(b *testing.B, consumers int) {
	tp := New()
	ls := make([]*countingListener, consumers)
	for i := range ls {
		ls[i] = &countingListener{}
		tp.Add(ls[i], nil)
	}
	pr := tp.Producer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.LoopBack(1)
	}
	b.StopTimer()
	for _, l := range ls {
		if l.n != int64(b.N) {
			b.Fatalf("consumer saw %d of %d events", l.n, b.N)
		}
	}
}

func BenchmarkFanout1(b *testing.B) { benchTransport(b, 1) }
func BenchmarkFanout3(b *testing.B) { benchTransport(b, 3) }

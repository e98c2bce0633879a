package core

import (
	"sync"
	"testing"

	"algoprof/internal/instrument"
	"algoprof/internal/mj/compiler"
	"algoprof/internal/vm"
)

// TestEventCountConcurrentRead is the -race regression test for the
// event-counter read: the daemon polls EventCount for quota accounting
// and progress heartbeats while the profiled run's goroutine is still
// ticking the profiler. The counter is atomic, so a mid-run read must be
// safe (and monotonic) — before the fix this was a plain uint64 and the
// race detector flagged exactly this pattern.
func TestEventCountConcurrentRead(t *testing.T) {
	const src = `
class Main {
  public static void main() {
    int s = 0;
    for (int i = 0; i < 20000; i++) { s = s + i; }
    print(s);
  }
}`
	prog, err := compiler.CompileSource(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ins, err := instrument.Instrument(prog, instrument.Optimized)
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	p := NewProfiler(ins, Options{})
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		// The reader: hammers EventCount until the run finishes, checking
		// monotonicity along the way.
		defer wg.Done()
		var last uint64
		for {
			n := p.EventCount()
			if n < last {
				t.Errorf("EventCount went backwards: %d after %d", n, last)
				return
			}
			last = n
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	m := vm.New(ins.Prog, vm.Config{Listener: p, Plan: ins.Plan, Seed: 1})
	if err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	close(done)
	wg.Wait()
	p.Finish()
	if p.EventCount() == 0 {
		t.Fatal("no events counted")
	}
}

package pipeline

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"algoprof/internal/events"
)

// Config sizes a Transport.
type Config struct {
	// Synchronous dispatches records inline from the producing goroutine —
	// same records, same per-consumer filtering, no ring buffer or
	// goroutines. This is the ablation baseline.
	Synchronous bool
	// BufferSize is the ring capacity in records, rounded up to a power of
	// two (0 = 4096).
	BufferSize int
	// Batch is how many records accumulate before the producer publishes
	// them with one atomic store (0 = 256). Clamped to half the buffer.
	Batch int
}

// Transport is one bounded SPSC-per-consumer broadcast ring: a single
// producer publishes record batches, and every consumer walks the shared
// buffer behind the producer with its own cursor. Add consumers, then
// Start, then feed events through Producer, then Close.
type Transport struct {
	cfg  Config
	mask int64
	buf  []Record

	// published is the number of records visible to consumers; the store
	// in flush releases the buffered records written before it.
	published atomic.Int64
	closed    atomic.Bool
	// aborted marks a cancelled run: consumers stop dispatching to their
	// listeners and fast-forward past whatever is still buffered.
	aborted atomic.Bool

	consumers []*Consumer
	prod      Producer
	wg        sync.WaitGroup
	started   bool
	finished  bool
}

// ConsumerOptions configures one consumer's relationship to the stream.
type ConsumerOptions struct {
	// HeapReader marks a consumer whose listener traverses the live heap
	// (e.g. the profiler core measuring input sizes). The producer's
	// Barrier waits for heap readers before every heap mutation; non-heap
	// consumers run freely ahead.
	HeapReader bool
	// Plan, if non-nil, filters method/field/alloc/array/io records to
	// those the plan enables — so one producer running under a full plan
	// can feed consumers that expect an optimized plan's event subset.
	// Loop records are never filtered, matching the VM's own gating.
	Plan *events.Plan
}

// Consumer is one listener's cursor into the transport's record stream.
type Consumer struct {
	t          *Transport
	name       string
	listener   events.Listener
	instr      InstrListener       // non-nil iff listener wants OpInstr ticks
	pathL      events.PathListener // non-nil iff listener wants path-counter records
	raw        RecordTap           // non-nil: listener takes raw records instead
	plan       *events.Plan
	heapReader bool
	clock      uint64
	err        error
	// dead marks a consumer whose listener panicked; its goroutine
	// fast-forwards the cursor and the producer stops dispatching to it.
	dead atomic.Bool

	_ [64]byte // keep each consumer's cursors on their own cache line
	// pos is the number of records this consumer has fully processed.
	pos atomic.Int64
	// claim is the number of records handed to a dispatcher (consumer
	// goroutine or, during a Barrier, the producer stealing the drain);
	// always >= pos. Whoever CASes pos -> target owns that range.
	claim atomic.Int64
	_     [64]byte
}

// New creates a Transport. Add consumers before Start. A Synchronous
// transport builds no ring: its producer dispatches each record inline
// from a slot of its own.
func New(cfg Config) *Transport {
	t := &Transport{cfg: cfg}
	t.prod.t = t
	t.prod.sync = cfg.Synchronous
	if cfg.Synchronous {
		return t
	}
	if cfg.BufferSize <= 0 {
		cfg.BufferSize = 4096
	}
	size := 1
	for size < cfg.BufferSize {
		size <<= 1
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 256
	}
	if cfg.Batch > size/2 {
		cfg.Batch = size / 2
	}
	if cfg.Batch < 1 {
		cfg.Batch = 1
	}
	t.cfg = cfg
	t.mask = int64(size - 1)
	t.buf = make([]Record, size)
	t.prod.batch = int64(cfg.Batch)
	return t
}

// Add registers a listener as a consumer of the stream. Must be called
// before Start. The listener receives OpInstr ticks iff it implements
// InstrListener.
func (t *Transport) Add(name string, l events.Listener, opt ConsumerOptions) *Consumer {
	if t.started {
		panic("pipeline: Add after Start")
	}
	c := &Consumer{
		t:          t,
		name:       name,
		listener:   l,
		plan:       opt.Plan,
		heapReader: opt.HeapReader,
	}
	if il, ok := l.(InstrListener); ok {
		c.instr = il
	}
	if pl, ok := l.(events.PathListener); ok {
		c.pathL = pl
	}
	if rt, ok := l.(RecordTap); ok {
		c.raw = rt
	}
	t.consumers = append(t.consumers, c)
	return c
}

// Producer returns the transport's producing end; it implements
// events.Listener and is safe to hand to the VM as its Listener (and its
// Instr method as the InstrHook, its Barrier method as the PreWrite hook).
func (t *Transport) Producer() *Producer { return &t.prod }

// Start launches one goroutine per consumer (none in Synchronous mode).
func (t *Transport) Start() {
	if t.started {
		panic("pipeline: Start twice")
	}
	t.started = true
	for _, c := range t.consumers {
		if c.heapReader {
			t.prod.heapReaders = append(t.prod.heapReaders, c)
		}
		// The first path-aware decoded consumer answers SiteTouch calls
		// (the producer must ask synchronously — the return value steers
		// the VM's per-site suppression).
		if c.pathL != nil && c.raw == nil && t.prod.touchC == nil {
			t.prod.touchC = c
		}
	}
	if t.cfg.Synchronous {
		return
	}
	for _, c := range t.consumers {
		t.wg.Add(1)
		go c.run()
	}
}

// Close publishes any buffered records, waits for every consumer to drain,
// and returns the first consumer error (a recovered listener panic), if
// any. Safe to call more than once.
func (t *Transport) Close() error {
	if t.started && !t.finished {
		t.finished = true
		if !t.cfg.Synchronous {
			t.prod.flush()
			t.closed.Store(true)
			t.wg.Wait()
		}
	}
	for _, c := range t.consumers {
		if c.err != nil {
			return c.err
		}
	}
	return nil
}

// Abort discards undelivered records and shuts the transport down: every
// consumer stops dispatching to its listener, fast-forwards past whatever
// is still buffered, and exits. This is the cancellation path — the caller
// is abandoning or finalizing a partial run, so delivering the buffered
// tail would only add latency. Like Close, it must be called from the
// producing goroutine; calling Close afterwards is a no-op.
func (t *Transport) Abort() error {
	t.aborted.Store(true)
	return t.Close()
}

// Dispatch delivers one record to every consumer inline, applying the same
// per-consumer filtering as live dispatch. It is the replay entry point: a
// trace reader constructs a Synchronous transport, attaches the offline
// backends, and feeds decoded records here in recorded order. Must not be
// mixed with a live Producer.
func (t *Transport) Dispatch(r *Record) {
	for _, c := range t.consumers {
		c.dispatch(r)
	}
}

// Clock returns the publication-time instruction counter of the record the
// consumer is currently processing (or last processed). Clock-dependent
// listeners read this instead of the live VM counter, so pipelined and
// synchronous runs see identical timestamps.
func (c *Consumer) Clock() uint64 { return c.clock }

// Err returns the consumer's recovered listener panic, if any.
func (c *Consumer) Err() error { return c.err }

// minCursor is the slowest consumer's cursor — the bound on how far the
// producer may write ahead.
func (t *Transport) minCursor() int64 {
	min := int64(math.MaxInt64)
	for _, c := range t.consumers {
		if p := c.pos.Load(); p < min {
			min = p
		}
	}
	return min
}

// idle yields the processor while waiting on the other side of the ring.
// Gosched first: on a single-core machine a spinning waiter would
// otherwise stall its peer until preemption. Sleep as a backstop so a
// pathological wait cannot monopolize the scheduler.
func idle(spins int) {
	if spins < 1024 {
		runtime.Gosched()
		return
	}
	time.Sleep(20 * time.Microsecond)
}

func (c *Consumer) run() {
	defer c.t.wg.Done()
	spins := 0
	for {
		if c.dead.Load() || c.t.aborted.Load() {
			c.fastForward()
			return
		}
		// Load pos before published. published >= pos always holds, and
		// a Barrier drain landing between the two loads only advances pos,
		// so this order keeps consumed <= pub. The reverse order lets a
		// drain carry pos past a stale pub: the CAS below would then move
		// claim backwards and the Store rewind pos, re-dispatching records.
		consumed := c.pos.Load()
		pub := c.t.published.Load()
		if pub == consumed {
			if c.t.closed.Load() {
				// Re-check after observing closed: the final flush
				// happens-before the closed store.
				if c.t.published.Load() == consumed {
					return
				}
				continue
			}
			idle(spins)
			spins++
			continue
		}
		if !c.claim.CompareAndSwap(consumed, pub) {
			// The producer is draining us inline (Barrier work stealing);
			// it will advance pos when done.
			idle(spins)
			spins++
			continue
		}
		spins = 0
		if c.dispatchRange(consumed, pub) {
			c.pos.Store(pub)
		}
	}
}

// fastForward keeps a dead consumer's cursor tracking the published count
// so the producer never blocks on its backpressure or barrier.
func (c *Consumer) fastForward() {
	for spins := 0; ; spins++ {
		pub := c.t.published.Load()
		c.pos.Store(pub)
		if c.t.closed.Load() && c.t.published.Load() == pub {
			return
		}
		idle(spins)
	}
}

// dispatchRange dispatches records [from, to) to the listener, reporting
// false when the listener panicked (the consumer is then marked dead, with
// the panic recorded in err). Callers must own the range via claim.
func (c *Consumer) dispatchRange(from, to int64) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			c.err = fmt.Errorf("pipeline: consumer %q panicked: %v", c.name, r)
			c.dead.Store(true)
		}
	}()
	for ; from < to; from++ {
		c.dispatch(&c.t.buf[from&c.t.mask])
	}
	return true
}

// dispatch decodes one record and invokes the listener, applying the
// consumer's plan filter. Shared by the pipelined and synchronous paths so
// both modes see identical filtering.
func (c *Consumer) dispatch(r *Record) {
	c.clock = r.Clock
	if c.raw != nil {
		c.raw.Record(r)
		return
	}
	p := c.plan
	switch r.Op {
	case OpInstr:
		if c.instr != nil {
			c.instr.Instr(int(r.ID), int(r.Ent))
		}
	case OpLoopEntry:
		c.listener.LoopEntry(int(r.ID))
	case OpLoopBack:
		c.listener.LoopBack(int(r.ID))
	case OpLoopExit:
		c.listener.LoopExit(int(r.ID))
	case OpMethodEntry:
		if p == nil || p.WantsMethod(int(r.ID)) {
			c.listener.MethodEntry(int(r.ID))
		}
	case OpMethodExit:
		if p == nil || p.WantsMethod(int(r.ID)) {
			c.listener.MethodExit(int(r.ID))
		}
	case OpFieldGet:
		if p == nil || p.WantsField(int(r.ID)) {
			c.listener.FieldGet(r.E1, int(r.ID))
		}
	case OpFieldPut:
		if p == nil || p.WantsField(int(r.ID)) {
			c.listener.FieldPut(r.E1, int(r.ID), r.E2)
		}
	case OpArrayLoad:
		if p == nil || p.Arrays {
			c.listener.ArrayLoad(r.E1)
		}
	case OpArrayStore:
		if p == nil || p.Arrays {
			c.listener.ArrayStore(r.E1, r.E2)
		}
	case OpAlloc:
		if p == nil || p.WantsAlloc(int(r.ID)) {
			c.listener.Alloc(r.E1, int(r.ID))
		}
	case OpInputRead:
		if p == nil || p.IO {
			c.listener.InputRead()
		}
	case OpOutputWrite:
		if p == nil || p.IO {
			c.listener.OutputWrite()
		}
	case OpPathCount:
		if c.pathL != nil {
			c.pathL.LoopPathCount(int(r.ID), int(r.Ent), r.Aux)
		}
	}
}

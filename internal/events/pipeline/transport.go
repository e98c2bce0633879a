package pipeline

import "algoprof/internal/events"

// Transport fans one event stream out to its consumers inline: every
// record reaches every consumer, in production order, before the
// producing call returns. Add consumers, then feed events through
// Producer (live runs) or Dispatch (replay).
type Transport struct {
	consumers []*Consumer
	prod      Producer
}

// Consumer is one listener attached to a transport.
type Consumer struct {
	listener events.Listener
	instr    InstrListener       // non-nil iff listener wants OpInstr ticks
	pathL    events.PathListener // non-nil iff listener wants path-counter records
	raw      RecordTap           // non-nil: listener takes raw records instead
	plan     *events.Plan
	clock    uint64
}

// New creates a Transport with no consumers.
func New() *Transport {
	t := &Transport{}
	t.prod.t = t
	return t
}

// Add attaches a listener as a consumer of the stream. The listener
// receives OpInstr ticks iff it implements InstrListener, and raw records
// instead of listener calls iff it implements RecordTap. A non-nil plan
// filters method/field/alloc/array/io records to those the plan enables,
// so one producer running under a union plan can feed consumers that
// expect an optimized plan's event subset. Loop records are never
// filtered, matching the VM's own gating.
func (t *Transport) Add(l events.Listener, plan *events.Plan) *Consumer {
	c := &Consumer{listener: l, plan: plan}
	if il, ok := l.(InstrListener); ok {
		c.instr = il
	}
	if pl, ok := l.(events.PathListener); ok {
		c.pathL = pl
	}
	if rt, ok := l.(RecordTap); ok {
		c.raw = rt
	}
	// The first path-aware decoded consumer answers the producer's
	// SiteTouch calls.
	if c.pathL != nil && c.raw == nil && t.prod.touch == nil {
		t.prod.touch = c.pathL
	}
	t.consumers = append(t.consumers, c)
	return c
}

// Producer returns the transport's producing end; it implements
// events.Listener and is safe to hand to the VM as its Listener (and its
// Instr method as the InstrHook).
func (t *Transport) Producer() *Producer { return &t.prod }

// Dispatch delivers one record to every consumer, applying the same
// per-consumer filtering as live dispatch. It is the replay entry point: a
// trace reader feeds decoded records here in recorded order. Must not be
// mixed with a live Producer.
func (t *Transport) Dispatch(r *Record) {
	for _, c := range t.consumers {
		c.dispatch(r)
	}
}

// Clock returns the instruction counter stamped on the record the
// consumer is processing (or last processed). Clock-dependent listeners
// read this instead of the live VM counter, so live and replayed runs see
// identical timestamps.
func (c *Consumer) Clock() uint64 { return c.clock }

// dispatch decodes one record and invokes the listener, applying the
// consumer's plan filter.
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

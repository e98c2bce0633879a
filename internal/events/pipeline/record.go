// Package pipeline is the profiling-event transport: the VM (or a trace
// reader, on replay) produces compact fixed-size event records, and a
// fan-out stage hands each record inline, in production order, to every
// attached listener. One execution pass can therefore
// drive the algorithmic profiler core, the CCT baseline, the basic-block
// baseline, the trace writer and the online verifier from one stream,
// where comparing backends previously re-ran the workload once per
// listener.
//
// Each consumer sees exactly the event sequence it would have seen wired
// directly to the VM, filtered by its own plan. Records carry the
// producer's instruction counter at publication time, and clock-dependent
// consumers (the CCT baseline) read it via Consumer.Clock, so a replayed
// trace reproduces the live timestamps.
package pipeline

import "algoprof/internal/events"

// Op tags a Record with the event kind it encodes.
type Op uint8

// Record op tags. OpNone marks an unused slot; it is never published.
const (
	OpNone Op = iota
	OpLoopEntry
	OpLoopBack
	OpLoopExit
	OpMethodEntry
	OpMethodExit
	OpFieldGet
	OpFieldPut
	OpArrayLoad
	OpArrayStore
	OpAlloc
	OpInputRead
	OpOutputWrite
	// OpInstr is a per-executed-instruction tick (method id + pc) for the
	// basic-block baseline; it is published only when the producer's Instr
	// method is wired as the VM's InstrHook.
	OpInstr
	// OpJrnlAlloc and OpJrnlStore are heap-journal records (entity births
	// and indexed array stores), published only when the producer is wired
	// as the frontend's events.Journal. Regular listeners never see them:
	// dispatch delivers them only to raw record taps (the trace writer),
	// which need them to maintain an exact shadow heap for offline replay.
	OpJrnlAlloc
	OpJrnlStore
	// OpPathCount carries one path counter of a counted loop flushed at
	// loop exit (paths mode): ID is the loop id, Ent the path id, Aux the
	// count. Delivered only to consumers implementing events.PathListener.
	OpPathCount
)

// Record is one profiling event in fixed-size binary form: an op tag plus
// up to three integer payloads. Entity-bearing events additionally carry
// the entity references a listener needs pre-resolved, so consumers never
// chase VM internals.
type Record struct {
	// Op is the event kind.
	Op Op
	// ID is the loop/method/field/class id, or the method id for OpInstr.
	ID int32
	// Ent is the EntityID of the accessed entity (0 = none), or the pc for
	// OpInstr.
	Ent int64
	// Aux is the EntityID of the newly stored target for put/store events
	// (0 = none).
	Aux int64
	// Clock is the producer's instruction counter at publication time.
	Clock uint64
	// E1 is the accessed entity for field/array/alloc events.
	E1 events.Entity
	// E2 is the newly stored target for field-put/array-store events.
	E2 events.Entity

	// The remaining fields carry heap-journal payloads and are zero on
	// every other op.
	//
	// Kx is the events.ElemMode for OpJrnlAlloc, or the stored-key kind
	// for OpJrnlStore (see KeyNone and friends). For OpJrnlStore, ID
	// holds the element index, KI the integer key, and KS the string key;
	// for OpJrnlAlloc, Aux holds the capacity and KS the type name.
	Kx uint8
	KI int64
	KS string
}

// Stored-key kinds for OpJrnlStore records (Record.Kx).
const (
	// KeyNone marks a reference or null store: Aux/E2 carry the target.
	KeyNone uint8 = iota
	// KeyInt marks a primitive store; KI holds the value.
	KeyInt
	// KeyStr marks a string store; KS holds the content.
	KeyStr
)

// InstrListener is optionally implemented by consumers that want
// per-instruction ticks (OpInstr records). Consumers that do not implement
// it skip those records.
type InstrListener interface {
	Instr(methodID, pc int)
}

// InstrTap adapts a per-instruction hook (like bbprof's Hook) into a
// consumer that ignores every listener event and receives only OpInstr
// ticks.
type InstrTap struct {
	events.NopListener
	Fn func(methodID, pc int)
}

// Instr implements InstrListener.
func (t InstrTap) Instr(methodID, pc int) { t.Fn(methodID, pc) }

// RecordTap is optionally implemented by consumers that want every record
// verbatim instead of decoded listener calls — the trace writer serializes
// the raw stream (including journal records, which decoded listeners never
// see). A RecordTap consumer receives no Listener callbacks.
type RecordTap interface {
	// Record is called once per published record, in publication order.
	// The record is only valid for the duration of the call.
	Record(r *Record)
}

// Package pipeline is the profiling-event stream in record form: the VM's
// Producer (or a trace reader, on replay) turns each event into a compact
// fixed-size Record and hands it inline, in production order, to one
// RecordTap, the profiled thread's session, which passes it on to the
// algorithmic profiler core, the CCT baseline, the basic-block baseline,
// the trace writer and the online verifier. One execution pass therefore
// drives every backend, where comparing them previously re-ran the
// workload once per listener.
//
// Deliver decodes a record into listener calls under the listener's own
// plan, so a listener sees exactly the event sequence it would have seen
// wired directly to the VM. Records carry the producer's instruction
// counter at publication time, and clock-dependent listeners (the CCT
// baseline) are timed by it, so a replayed trace reproduces the live
// timestamps.
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
	// Deliver skips them, and only raw record taps (the trace writer, the
	// verifier) read them, the writer to keep an exact shadow heap for
	// offline replay.
	OpJrnlAlloc
	OpJrnlStore
	// OpPathCount carries one path counter of a counted loop flushed at
	// loop exit (paths mode): ID is the loop id, Ent the path id, Aux the
	// count.
	OpPathCount
)

// Record is one profiling event in fixed-size binary form: an op tag plus
// up to three integer payloads. Entity-bearing events additionally carry
// the entity references a listener needs pre-resolved, so listeners never
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

// RecordTap takes every record verbatim: a producer hands its records to
// one, and the trace writer and the verifier are ones too (the writer
// serializes the raw stream, including journal records, which decoded
// listeners never see).
type RecordTap interface {
	// Record is called once per published record, in publication order.
	// The record is only valid for the duration of the call.
	Record(r *Record)
}

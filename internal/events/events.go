// Package events defines the event vocabulary that connects execution
// frontends (the MJ virtual machine, or natively instrumented Go code via
// the probe API) to profiling backends (the algorithmic profiler core, the
// calling-context-tree baseline, and the basic-block baseline).
//
// The vocabulary mirrors exactly the probes AlgoProf (PLDI'12, §3.1)
// injects into Java bytecode: loop entry/exit, loop back edges, method
// entry/exit, reference field accesses, array loads/stores, object
// allocations, and external input/output operations.
package events

// SpanShift splits entity ids into spans, one per VM thread: a thread
// numbers its entities consecutively from tid<<SpanShift (the main thread,
// tid 0, from 1), so id>>SpanShift is the span of the thread that
// allocated the entity. Tables keyed by entity id stay dense per span.
const SpanShift = 40

// Entity is a heap entity — an object or an array — as seen by profiling
// listeners. Listeners use it for identity (input identification via
// snapshot overlap) and for traversal (input size measurement).
type Entity interface {
	// EntityID is a unique, never-reused heap identity.
	EntityID() uint64
	// TypeName is the source-level type ("Node", "int[]", "Vertex[][]").
	TypeName() string
	// ClassID is the class id for objects, -1 for arrays.
	ClassID() int
	// IsArray distinguishes arrays from objects.
	IsArray() bool
	// Capacity is the number of element slots for arrays, 0 for objects.
	Capacity() int
	// ForEachRef visits each non-nil reference successor. For objects,
	// fieldID is the global field id of the reference field; for arrays,
	// fieldID is -1 and targets are the non-nil elements.
	ForEachRef(visit func(fieldID int, target Entity))
	// ForEachElemKey visits array element identity keys for the
	// unique-element-count size strategy: references yield RefKey values,
	// primitives their numeric value, strings their content. Reference
	// arrays skip nil elements; primitive arrays visit every slot.
	ForEachElemKey(visit func(key ElemKey))
}

// RefBatcher is an optional Entity extension for the snapshot hot path:
// AppendRefs appends each non-nil reference successor whose field id
// satisfies keep to dst and returns the extended slice. Implementations
// let a traversal collect a node's successors with one call instead of a
// closure invocation per edge.
type RefBatcher interface {
	AppendRefs(keep func(fieldID int) bool, dst []Entity) []Entity
}

// ElemKey is a comparable identity key for an array element: RefKey,
// int64, or string.
type ElemKey any

// RefKey is the ElemKey of a reference element.
type RefKey uint64

// Listener receives profiling events. Frontends call these methods only
// for program points enabled in the active Plan; loop probes are enabled
// by the bytecode rewriter and always fire when executed.
//
// All int ids are stable per program: loop ids are assigned by the
// instrumenter, method/field/class ids by semantic analysis.
type Listener interface {
	// LoopEntry fires when control enters a loop from outside.
	LoopEntry(loopID int)
	// LoopBack fires on each traversal of a loop back edge.
	LoopBack(loopID int)
	// LoopExit fires when control leaves the loop (including early returns).
	LoopExit(loopID int)

	// MethodEntry/MethodExit fire around calls of instrumented methods.
	MethodEntry(methodID int)
	MethodExit(methodID int)

	// FieldGet/FieldPut fire on reads and writes of instrumented reference
	// fields (fields participating in a recursive type cycle under the
	// optimized plan). newTarget is the entity newly stored by a put, or
	// nil when a non-reference or null was stored.
	FieldGet(obj Entity, fieldID int)
	FieldPut(obj Entity, fieldID int, newTarget Entity)

	// ArrayLoad/ArrayStore fire on array element reads and writes.
	ArrayLoad(arr Entity)
	ArrayStore(arr Entity, newTarget Entity)

	// Alloc fires on allocation of instrumented classes (classes that are
	// part of a recursive type cycle under the optimized plan).
	Alloc(obj Entity, classID int)

	// InputRead / OutputWrite fire on external I/O operations.
	InputRead()
	OutputWrite()
}

// Plan says which dynamic events a frontend must emit. The instrumentation
// planner computes optimized plans using static analysis (recursion
// headers, recursive-type fields); a full plan enables everything.
//
// Loop probes are not part of the plan: they are injected into the
// bytecode by the rewriter and fire whenever executed.
type Plan struct {
	// MethodEntryExit[m] enables entry/exit events for method id m.
	MethodEntryExit []bool
	// FieldAccess[f] enables get/put events for field id f.
	FieldAccess []bool
	// AllocClass[c] enables allocation events for class id c.
	AllocClass []bool
	// Arrays enables array load/store events.
	Arrays bool
	// IO enables input-read and output-write events.
	IO bool
}

// NewFullPlan enables every event for a program shape with the given
// numbers of methods, fields and classes.
func NewFullPlan(numMethods, numFields, numClasses int) *Plan {
	p := &Plan{
		MethodEntryExit: make([]bool, numMethods),
		FieldAccess:     make([]bool, numFields),
		AllocClass:      make([]bool, numClasses),
		Arrays:          true,
		IO:              true,
	}
	for i := range p.MethodEntryExit {
		p.MethodEntryExit[i] = true
	}
	for i := range p.FieldAccess {
		p.FieldAccess[i] = true
	}
	for i := range p.AllocClass {
		p.AllocClass[i] = true
	}
	return p
}

// NewEmptyPlan disables every event (loop probes still fire if the
// bytecode was rewritten).
func NewEmptyPlan(numMethods, numFields, numClasses int) *Plan {
	return &Plan{
		MethodEntryExit: make([]bool, numMethods),
		FieldAccess:     make([]bool, numFields),
		AllocClass:      make([]bool, numClasses),
	}
}

// WantsMethod reports whether method id m is instrumented.
func (p *Plan) WantsMethod(m int) bool {
	return p != nil && m >= 0 && m < len(p.MethodEntryExit) && p.MethodEntryExit[m]
}

// WantsField reports whether field id f is instrumented.
func (p *Plan) WantsField(f int) bool {
	return p != nil && f >= 0 && f < len(p.FieldAccess) && p.FieldAccess[f]
}

// WantsAlloc reports whether allocations of class id c are instrumented.
func (p *Plan) WantsAlloc(c int) bool {
	return p != nil && c >= 0 && c < len(p.AllocClass) && p.AllocClass[c]
}

// ElemMode describes how an array's element slots map to ForEachElemKey
// visits, so a replayed shadow of the array can reproduce the live
// entity's key sequence exactly. Frontends report it at allocation time
// (see Journal); it matters only for trace capture and offline replay.
type ElemMode uint8

// Element modes.
const (
	// ElemModeAuto visits whatever a slot holds — references as RefKey,
	// strings as content, integers as value — and skips never-written
	// slots. This is the probe API's mirror-slice behaviour and the
	// default for entities first seen without an allocation journal.
	ElemModeAuto ElemMode = iota
	// ElemModeRef is a reference-element array (including String[]):
	// reference slots visit as RefKey, string slots as content, and null
	// (or never-written) slots are skipped.
	ElemModeRef
	// ElemModeVal is a primitive-element array (int[], boolean[]): every
	// slot visits its numeric value, with never-written slots visiting 0.
	ElemModeVal
)

// PathListener extends Listener for the path-counter frontend (paths
// mode). Counted loops do not stream per-iteration LoopBack and
// field/array access events; instead the VM keeps one Ball–Larus path
// counter per whole iteration and reports:
//
//   - SiteTouch, once per static access site per repetition segment, the
//     first time the site executes after a repetition boundary. It lets
//     the profiler identify (and size) the accessed input eagerly while
//     the heap still has the shape the access saw. A true return means
//     the site is resolved for this segment and the frontend may suppress
//     further touches until the next boundary; false means resolution is
//     still pending (deferred input identification) and the frontend must
//     keep calling SiteTouch for every execution of the site so the
//     listener sees the access that finally resolves it.
//   - LoopPathCount, at loop exit, once per nonzero path counter. The
//     listener decodes path ids into iteration counts and per-site access
//     counts; this is the single source of costs for counted loops.
//
// A frontend only uses the path methods when its program was instrumented
// in paths mode, so a Listener that does not implement PathListener still
// works for events mode.
type PathListener interface {
	Listener
	// SiteTouch reports the first execution of access site `site` in the
	// current repetition segment, on entity obj.
	SiteTouch(site int, obj Entity) bool
	// LoopPathCount reports that the finished invocation of loop loopID
	// executed path pathID count times.
	LoopPathCount(loopID, pathID int, count int64)
}

// Journal receives heap-shape operations that the Listener vocabulary does
// not carry: every entity birth (including arrays, which have no Alloc
// event under any plan) and array element stores with their index and
// stored value. The trace recorder needs both to maintain an exact shadow
// heap for offline replay; frontends call journal methods unconditionally
// (they are not plan-gated) and only when a journal is configured, so
// non-recording runs pay nothing.
type Journal interface {
	// AllocEntity reports a fresh heap entity. mode describes array
	// element-key semantics (ignored for objects).
	AllocEntity(e Entity, mode ElemMode)
	// ArrayStoreAt reports one array element store: key is the stored
	// value's element identity (int64, string, or nil when a reference or
	// null was stored) and newTarget is the stored entity (nil for
	// primitives, strings, and null).
	ArrayStoreAt(arr Entity, idx int, key ElemKey, newTarget Entity)
}

// NopListener is a Listener that ignores every event. Embed it to
// implement only the events a profiler cares about.
type NopListener struct{}

// LoopEntry implements Listener.
func (NopListener) LoopEntry(int) {}

// LoopBack implements Listener.
func (NopListener) LoopBack(int) {}

// LoopExit implements Listener.
func (NopListener) LoopExit(int) {}

// MethodEntry implements Listener.
func (NopListener) MethodEntry(int) {}

// MethodExit implements Listener.
func (NopListener) MethodExit(int) {}

// FieldGet implements Listener.
func (NopListener) FieldGet(Entity, int) {}

// FieldPut implements Listener.
func (NopListener) FieldPut(Entity, int, Entity) {}

// ArrayLoad implements Listener.
func (NopListener) ArrayLoad(Entity) {}

// ArrayStore implements Listener.
func (NopListener) ArrayStore(Entity, Entity) {}

// Alloc implements Listener.
func (NopListener) Alloc(Entity, int) {}

// InputRead implements Listener.
func (NopListener) InputRead() {}

// OutputWrite implements Listener.
func (NopListener) OutputWrite() {}

// Multi fans one event stream out to several listeners in order.
type Multi []Listener

// LoopEntry implements Listener.
func (m Multi) LoopEntry(id int) {
	for _, l := range m {
		l.LoopEntry(id)
	}
}

// LoopBack implements Listener.
func (m Multi) LoopBack(id int) {
	for _, l := range m {
		l.LoopBack(id)
	}
}

// LoopExit implements Listener.
func (m Multi) LoopExit(id int) {
	for _, l := range m {
		l.LoopExit(id)
	}
}

// MethodEntry implements Listener.
func (m Multi) MethodEntry(id int) {
	for _, l := range m {
		l.MethodEntry(id)
	}
}

// MethodExit implements Listener.
func (m Multi) MethodExit(id int) {
	for _, l := range m {
		l.MethodExit(id)
	}
}

// FieldGet implements Listener.
func (m Multi) FieldGet(o Entity, f int) {
	for _, l := range m {
		l.FieldGet(o, f)
	}
}

// FieldPut implements Listener.
func (m Multi) FieldPut(o Entity, f int, t Entity) {
	for _, l := range m {
		l.FieldPut(o, f, t)
	}
}

// ArrayLoad implements Listener.
func (m Multi) ArrayLoad(a Entity) {
	for _, l := range m {
		l.ArrayLoad(a)
	}
}

// ArrayStore implements Listener.
func (m Multi) ArrayStore(a Entity, t Entity) {
	for _, l := range m {
		l.ArrayStore(a, t)
	}
}

// Alloc implements Listener.
func (m Multi) Alloc(o Entity, c int) {
	for _, l := range m {
		l.Alloc(o, c)
	}
}

// InputRead implements Listener.
func (m Multi) InputRead() {
	for _, l := range m {
		l.InputRead()
	}
}

// OutputWrite implements Listener.
func (m Multi) OutputWrite() {
	for _, l := range m {
		l.OutputWrite()
	}
}

// Package probe lets natively written Go code feed the algorithmic
// profiler directly, demonstrating that the profiler core is independent
// of the MJ frontend: any source of loop/recursion/structure-access events
// produces a repetition tree, input identification, algorithm grouping,
// classification, and cost functions.
//
// A Session corresponds to one profiled thread of execution (the paper
// builds one repetition tree per thread). Instrument code explicitly:
//
//	s := probe.NewSession()
//	s.LoopEnter("build")
//	var head *probe.Object
//	for i := 0; i < n; i++ {
//	    s.LoopIterate("build")
//	    node := s.NewObject("Node")
//	    node.SetLink("next", head)
//	    head = node
//	}
//	s.LoopExit("build")
//	profile := s.Profile()
package probe

import (
	"fmt"
	"sync/atomic"

	"algoprof"
	"algoprof/internal/core"
	"algoprof/internal/events"
	"algoprof/internal/rectype"
	"algoprof/internal/snapshot"
)

// maxLinkFields bounds the number of distinct link names per session.
const maxLinkFields = 4096

// Options configure a Session.
type Options struct {
	// UniqueElements selects the unique-element array size strategy.
	UniqueElements bool
	// EagerIdentify disables the deferred-identification optimization.
	EagerIdentify bool
}

// Session profiles one thread of explicitly instrumented Go code.
// Sessions are not safe for concurrent use: create one per goroutine.
type Session struct {
	prof *core.Profiler

	loopIDs   map[string]int
	loopNames []string
	recIDs    map[string]int
	recNames  []string
	fieldIDs  map[string]int

	finished bool
}

var entityIDs atomic.Uint64

// NewSession creates an empty profiling session.
func NewSession() *Session { return NewSessionWith(Options{}) }

// NewSessionWith creates a session with explicit options.
func NewSessionWith(o Options) *Session {
	s := &Session{
		loopIDs:  map[string]int{},
		recIDs:   map[string]int{},
		fieldIDs: map[string]int{},
	}
	rt := &rectype.Result{RecursiveField: make([]bool, maxLinkFields)}
	for i := range rt.RecursiveField {
		rt.RecursiveField[i] = true
	}
	opts := core.Options{}
	if o.UniqueElements {
		opts.SizeStrategy = snapshot.UniqueElements
	}
	if o.EagerIdentify {
		opts.Identify = core.EagerIdentify
	}
	s.prof = core.NewCustomProfiler(rt,
		func(kind core.NodeKind, id int) string {
			switch kind {
			case core.KindLoop:
				if id < len(s.loopNames) {
					return s.loopNames[id]
				}
			case core.KindRecursion:
				if id < len(s.recNames) {
					return s.recNames[id] + "/recursion"
				}
			}
			return fmt.Sprintf("node#%d", id)
		},
		func(int) string { return "" },
		opts)
	return s
}

func (s *Session) loopID(name string) int {
	if id, ok := s.loopIDs[name]; ok {
		return id
	}
	id := len(s.loopNames)
	s.loopIDs[name] = id
	s.loopNames = append(s.loopNames, name)
	return id
}

func (s *Session) recID(name string) int {
	if id, ok := s.recIDs[name]; ok {
		return id
	}
	id := len(s.recNames)
	s.recIDs[name] = id
	s.recNames = append(s.recNames, name)
	return id
}

func (s *Session) fieldID(name string) int {
	if id, ok := s.fieldIDs[name]; ok {
		return id
	}
	id := len(s.fieldIDs)
	if id >= maxLinkFields {
		panic(fmt.Sprintf("probe: more than %d distinct link names", maxLinkFields))
	}
	s.fieldIDs[name] = id
	return id
}

// LoopEnter marks entry into the named loop.
func (s *Session) LoopEnter(name string) { s.prof.LoopEntry(s.loopID(name)) }

// LoopIterate marks one iteration (a back-edge traversal). Call it at the
// top of each iteration after the first, or simply every iteration — the
// paper counts back edges, i.e. iterations after the first entry; calling
// it once per iteration matches counting completed iterations.
func (s *Session) LoopIterate(name string) { s.prof.LoopBack(s.loopID(name)) }

// LoopExit marks exit from the named loop.
func (s *Session) LoopExit(name string) { s.prof.LoopExit(s.loopID(name)) }

// RecursionEnter marks a call of a potentially recursive function; nested
// calls with the same name fold into one repetition node and count
// algorithmic steps.
func (s *Session) RecursionEnter(name string) { s.prof.MethodEntry(s.recID(name)) }

// RecursionExit marks the matching return.
func (s *Session) RecursionExit(name string) { s.prof.MethodExit(s.recID(name)) }

// ReadInput marks consumption of external input.
func (s *Session) ReadInput() { s.prof.InputRead() }

// WriteOutput marks production of external output.
func (s *Session) WriteOutput() { s.prof.OutputWrite() }

// Profile finishes the session and assembles the algorithmic profile.
func (s *Session) Profile() *algoprof.Profile {
	if !s.finished {
		s.prof.Finish()
		s.finished = true
	}
	return algoprof.FromProfiler(s.prof)
}

// Errors returns internal consistency errors (unbalanced events).
func (s *Session) Errors() []error { return s.prof.Errors() }

// ---------------------------------------------------------------------------
// Heap mirror

// Object mirrors one node of a recursive structure in the profiled code.
type Object struct {
	session *Session
	id      uint64
	typ     string
	links   []link
}

type link struct {
	field  int
	target *Object
}

// NewObject allocates a structure node and emits the allocation event.
func (s *Session) NewObject(typeName string) *Object {
	o := &Object{session: s, id: entityIDs.Add(1), typ: typeName}
	s.prof.Alloc(o, 0)
	return o
}

// SetLink writes a recursive link (a structure write event). A nil target
// clears the link.
func (o *Object) SetLink(name string, target *Object) {
	f := o.session.fieldID(name)
	for i := range o.links {
		if o.links[i].field == f {
			o.links[i].target = target
			o.session.prof.FieldPut(o, f, entityOrNil(target))
			return
		}
	}
	o.links = append(o.links, link{field: f, target: target})
	o.session.prof.FieldPut(o, f, entityOrNil(target))
}

// Link reads a recursive link (a structure read event).
func (o *Object) Link(name string) *Object {
	f := o.session.fieldID(name)
	o.session.prof.FieldGet(o, f)
	for i := range o.links {
		if o.links[i].field == f {
			return o.links[i].target
		}
	}
	return nil
}

func entityOrNil(o *Object) events.Entity {
	if o == nil {
		return nil
	}
	return o
}

// EntityID implements events.Entity.
func (o *Object) EntityID() uint64 { return o.id }

// TypeName implements events.Entity.
func (o *Object) TypeName() string { return o.typ }

// ClassID implements events.Entity.
func (o *Object) ClassID() int { return 0 }

// IsArray implements events.Entity.
func (o *Object) IsArray() bool { return false }

// Capacity implements events.Entity.
func (o *Object) Capacity() int { return 0 }

// ForEachRef implements events.Entity.
func (o *Object) ForEachRef(visit func(fieldID int, target events.Entity)) {
	for _, l := range o.links {
		if l.target != nil {
			visit(l.field, l.target)
		}
	}
}

// ForEachElemKey implements events.Entity.
func (o *Object) ForEachElemKey(func(events.ElemKey)) {}

// Slice mirrors an array in the profiled code. Elements may be *Object
// references, ints, or strings.
type Slice struct {
	session *Session
	id      uint64
	typ     string
	elems   []any
}

// NewSlice allocates an array mirror with the given capacity.
func (s *Session) NewSlice(typeName string, capacity int) *Slice {
	sl := &Slice{session: s, id: entityIDs.Add(1), typ: typeName, elems: make([]any, capacity)}
	s.prof.Alloc(sl, -1)
	return sl
}

// Store writes element i (an array store event).
func (sl *Slice) Store(i int, v any) {
	sl.elems[i] = v
	var t events.Entity
	if o, ok := v.(*Object); ok && o != nil {
		t = o
	}
	sl.session.prof.ArrayStore(sl, t)
}

// Load reads element i (an array load event).
func (sl *Slice) Load(i int) any {
	sl.session.prof.ArrayLoad(sl)
	return sl.elems[i]
}

// Len returns the slice capacity.
func (sl *Slice) Len() int { return len(sl.elems) }

// EntityID implements events.Entity.
func (sl *Slice) EntityID() uint64 { return sl.id }

// TypeName implements events.Entity.
func (sl *Slice) TypeName() string { return sl.typ }

// ClassID implements events.Entity.
func (sl *Slice) ClassID() int { return -1 }

// IsArray implements events.Entity.
func (sl *Slice) IsArray() bool { return true }

// Capacity implements events.Entity.
func (sl *Slice) Capacity() int { return len(sl.elems) }

// ForEachRef implements events.Entity.
func (sl *Slice) ForEachRef(visit func(fieldID int, target events.Entity)) {
	for _, e := range sl.elems {
		if o, ok := e.(*Object); ok && o != nil {
			visit(-1, o)
		}
	}
}

// ForEachElemKey implements events.Entity.
func (sl *Slice) ForEachElemKey(visit func(events.ElemKey)) {
	for _, e := range sl.elems {
		switch v := e.(type) {
		case *Object:
			if v != nil {
				visit(events.RefKey(v.id))
			}
		case string:
			visit(v)
		case int:
			visit(int64(v))
		case int64:
			visit(v)
		case nil:
			// untouched slot of a reference slice: skip
		default:
			visit(fmt.Sprint(v))
		}
	}
}

// Package vm implements the MJ bytecode interpreter: a stack machine with
// an identity-carrying heap, deterministic builtins, and hooks that emit
// profiling events to an events.Listener according to an instrumentation
// plan. It plays the role of the instrumented JVM in the AlgoProf paper.
package vm

import (
	"fmt"
	"strconv"

	"algoprof/internal/events"
	"algoprof/internal/mj/types"
)

// ValKind discriminates runtime values.
type ValKind uint8

// Runtime value kinds.
const (
	ValNull ValKind = iota
	ValInt
	ValBool
	ValStr
	ValObj
	ValArr
)

// Value is a runtime value: a kind, an int, and one interface word pair
// holding the reference a ValStr, ValObj or ValArr carries. At 32 bytes,
// every operand-stack slot, local, field and array element copies four
// words. R's dynamic type follows K exactly — string, *Object or *Array,
// nil otherwise — so a type assertion on R doubles as the kind check.
type Value struct {
	K ValKind
	I int64 // int value, or 0/1 for bool
	R any   // string (ValStr), *Object (ValObj), *Array (ValArr), else nil
}

// Convenience constructors.
func intVal(i int64) Value { return Value{K: ValInt, I: i} }
func boolVal(b bool) Value {
	v := Value{K: ValBool}
	if b {
		v.I = 1
	}
	return v
}
func strVal(s string) Value  { return Value{K: ValStr, R: s} }
func objVal(o *Object) Value { return Value{K: ValObj, R: o} }
func arrVal(a *Array) Value  { return Value{K: ValArr, R: a} }

var nullVal = Value{K: ValNull}

// IsNull reports whether v is the null reference.
func (v Value) IsNull() bool { return v.K == ValNull }

// Entity returns the heap entity behind v, or nil for non-references.
func (v Value) Entity() events.Entity {
	switch r := v.R.(type) {
	case *Object:
		return r
	case *Array:
		return r
	}
	return nil
}

// String renders the value for debug printing and writeOutput.
func (v Value) String() string {
	switch v.K {
	case ValNull:
		return "null"
	case ValInt:
		return strconv.FormatInt(v.I, 10)
	case ValBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case ValStr:
		return v.R.(string)
	case ValObj:
		o := v.R.(*Object)
		return fmt.Sprintf("%s@%d", o.Class.Name, o.ID)
	case ValArr:
		a := v.R.(*Array)
		return fmt.Sprintf("%s@%d(len=%d)", a.TypeName(), a.ID, len(a.Elems))
	}
	return "?"
}

// equal implements MJ == semantics: ints and bools by value, strings by
// content, references by identity, null equal only to null.
func equal(a, b Value) bool {
	if a.K == ValNull || b.K == ValNull {
		return a.K == b.K
	}
	if a.K != b.K {
		return false
	}
	switch a.K {
	case ValInt, ValBool:
		return a.I == b.I
	case ValStr:
		return a.R.(string) == b.R.(string)
	case ValObj:
		return a.R.(*Object) == b.R.(*Object)
	case ValArr:
		return a.R.(*Array) == b.R.(*Array)
	}
	return false
}

// ---------------------------------------------------------------------------
// Heap entities

// Object is a heap-allocated class instance.
type Object struct {
	ID     uint64
	Class  *types.Class
	Fields []Value // indexed by field slot
}

// EntityID implements events.Entity.
func (o *Object) EntityID() uint64 { return o.ID }

// TypeName implements events.Entity.
func (o *Object) TypeName() string { return o.Class.Name }

// ClassID implements events.Entity.
func (o *Object) ClassID() int { return o.Class.ID }

// IsArray implements events.Entity.
func (o *Object) IsArray() bool { return false }

// Capacity implements events.Entity.
func (o *Object) Capacity() int { return 0 }

// ForEachRef implements events.Entity: visits non-nil object/array fields.
func (o *Object) ForEachRef(visit func(fieldID int, target events.Entity)) {
	for _, f := range o.Class.RefFields() {
		switch r := o.Fields[f.Slot].R.(type) {
		case *Object:
			visit(f.ID, r)
		case *Array:
			visit(f.ID, r)
		}
	}
}

// ForEachElemKey implements events.Entity (no elements on objects).
func (o *Object) ForEachElemKey(func(events.ElemKey)) {}

// AppendRefs implements events.RefBatcher.
func (o *Object) AppendRefs(keep func(fieldID int) bool, dst []events.Entity) []events.Entity {
	for _, f := range o.Class.RefFields() {
		if !keep(f.ID) {
			continue
		}
		switch r := o.Fields[f.Slot].R.(type) {
		case *Object:
			dst = append(dst, r)
		case *Array:
			dst = append(dst, r)
		}
	}
	return dst
}

// Array is a heap-allocated array. Type is the full array type, so the
// element type is Type.Elem.
type Array struct {
	ID    uint64
	Type  *types.Type
	Elems []Value
}

// EntityID implements events.Entity.
func (a *Array) EntityID() uint64 { return a.ID }

// TypeName implements events.Entity.
func (a *Array) TypeName() string { return a.Type.String() }

// ClassID implements events.Entity.
func (a *Array) ClassID() int { return -1 }

// IsArray implements events.Entity.
func (a *Array) IsArray() bool { return true }

// Capacity implements events.Entity.
func (a *Array) Capacity() int { return len(a.Elems) }

// ForEachRef implements events.Entity: visits non-nil reference elements.
func (a *Array) ForEachRef(visit func(fieldID int, target events.Entity)) {
	if !a.Type.Elem.IsRef() {
		return
	}
	for i := range a.Elems {
		switch r := a.Elems[i].R.(type) {
		case *Object:
			visit(-1, r)
		case *Array:
			visit(-1, r)
		}
	}
}

// ForEachElemKey implements events.Entity.
func (a *Array) ForEachElemKey(visit func(events.ElemKey)) {
	if a.Type.Elem.IsRef() {
		for i := range a.Elems {
			v := &a.Elems[i]
			switch v.K {
			case ValObj:
				visit(events.RefKey(v.R.(*Object).ID))
			case ValArr:
				visit(events.RefKey(v.R.(*Array).ID))
			case ValStr:
				visit(v.R)
			}
		}
		return
	}
	for i := range a.Elems {
		v := &a.Elems[i]
		switch v.K {
		case ValStr:
			visit(v.R)
		default:
			visit(v.I)
		}
	}
}

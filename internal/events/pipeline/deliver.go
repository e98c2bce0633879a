package pipeline

import "algoprof/internal/events"

// Deliver decodes one record into the matching call on l. Method, field,
// allocation, array and I/O records reach l only when plan enables them,
// so a listener fed by a producer running under a wider plan (a Backends
// run's union plan) sees exactly the records its own plan would have
// produced. Loop and path-counter records always pass, matching the VM's
// own gating; instruction ticks and heap-journal records have no listener
// call and are skipped.
func Deliver(l events.PathListener, plan *events.Plan, r *Record) {
	switch r.Op {
	case OpLoopEntry:
		l.LoopEntry(int(r.ID))
	case OpLoopBack:
		l.LoopBack(int(r.ID))
	case OpLoopExit:
		l.LoopExit(int(r.ID))
	case OpMethodEntry:
		if plan.WantsMethod(int(r.ID)) {
			l.MethodEntry(int(r.ID))
		}
	case OpMethodExit:
		if plan.WantsMethod(int(r.ID)) {
			l.MethodExit(int(r.ID))
		}
	case OpFieldGet:
		if plan.WantsField(int(r.ID)) {
			l.FieldGet(r.E1, int(r.ID))
		}
	case OpFieldPut:
		if plan.WantsField(int(r.ID)) {
			l.FieldPut(r.E1, int(r.ID), r.E2)
		}
	case OpArrayLoad:
		if plan.Arrays {
			l.ArrayLoad(r.E1)
		}
	case OpArrayStore:
		if plan.Arrays {
			l.ArrayStore(r.E1, r.E2)
		}
	case OpAlloc:
		if plan.WantsAlloc(int(r.ID)) {
			l.Alloc(r.E1, int(r.ID))
		}
	case OpInputRead:
		if plan.IO {
			l.InputRead()
		}
	case OpOutputWrite:
		if plan.IO {
			l.OutputWrite()
		}
	case OpPathCount:
		l.LoopPathCount(int(r.ID), int(r.Ent), r.Aux)
	}
}

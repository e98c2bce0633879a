// Package snapshot implements input identification and size measurement
// for the algorithmic profiler (§2.3, §2.4, §3.4 of the AlgoProf paper).
//
// A snapshot of a structure is the set of heap entities reachable from an
// accessed reference via recursive links (recursive-type fields, plus
// arrays embedded in structures). Snapshots taken at different times are
// unified into *inputs* using the paper's "Some Elements Equivalent"
// criterion: two snapshots denote the same input when they share at least
// one element. For arrays, elements may be values (strings) rather than
// heap entities, so array snapshots also carry element identity keys; this
// is what lets a reallocated, grown backing array be recognized as the
// same input as its predecessor (the resizable-array case of Listing 6).
//
// Entity ids are issued by monotonic counters, so the live id space is a
// near-contiguous range. The registry exploits that: ownership, the
// snapshot memo, and traversal de-duplication are base-offset slice tables
// indexed by entity id rather than hash maps, which keeps the per-node
// cost of the observation path to a handful of array operations.
package snapshot

import (
	"fmt"
	"sort"
	"strings"

	"algoprof/internal/events"
	"algoprof/internal/rectype"
)

// Strategy selects how array sizes are measured (§3.4).
type Strategy int

// Array size strategies.
const (
	// Capacity counts element slots (recursively for multi-dimensional
	// arrays: top-level slots plus all lower-level slots).
	Capacity Strategy = iota
	// UniqueElements counts the set of unique elements (all non-null
	// elements of reference arrays, all values of primitive arrays);
	// approximates the used fraction of over-allocated arrays.
	UniqueElements
)

// String names the strategy.
func (s Strategy) String() string {
	if s == UniqueElements {
		return "unique"
	}
	return "capacity"
}

// Criterion selects the snapshot equivalence criterion (§2.4): how the
// registry decides whether two snapshots represent the same input.
type Criterion int

// Equivalence criteria.
const (
	// SomeElements unifies snapshots that share at least one element —
	// the paper's default: robust to structure evolution, partial
	// traversals of weakly connected structures, and array reallocation.
	SomeElements Criterion = iota
	// AllElements unifies snapshots only when their element sets are
	// identical; an evolving structure fragments into one input per
	// distinct extent.
	AllElements
	// SameArray unifies arrays only by object identity (element overlap
	// ignored); structures still unify by element overlap. A reallocated
	// backing array becomes a new input.
	SameArray
	// SameType unifies any two snapshots whose element type signature
	// matches: all Node-lists in a program become one input.
	SameType
)

// String names the criterion.
func (c Criterion) String() string {
	switch c {
	case AllElements:
		return "all-elements"
	case SameArray:
		return "same-array"
	case SameType:
		return "same-type"
	}
	return "some-elements"
}

// Kind distinguishes input categories.
type Kind int

// Input kinds.
const (
	KindStructure Kind = iota
	KindArray
)

// String names the kind.
func (k Kind) String() string {
	if k == KindArray {
		return "array"
	}
	return "structure"
}

// visitSet is a generation-stamped membership set over entity ids, reused
// across traversals without clearing: begin() bumps the generation, making
// every previous mark stale in O(1).
type visitSet struct {
	marks events.Table[uint32]
	gen   uint32
}

func (v *visitSet) begin() {
	v.gen++
	if v.gen == 0 { // generation wrapped: marks are ambiguous, drop them
		v.marks = events.Table[uint32]{}
		v.gen = 1
	}
}

// add marks id as visited, reporting whether it was previously unvisited.
func (v *visitSet) add(id uint64) bool {
	m := v.marks.Slot(id)
	if *m == v.gen {
		return false
	}
	*m = v.gen
	return true
}

// ---------------------------------------------------------------------------
// Snapshots

// typeCount is one per-class object tally. Snapshots touch a handful of
// classes at most, so an association list beats a map: the string compare
// hits the pointer-equality fast path because class names are interned by
// the runtime that issues them.
type typeCount struct {
	name string
	n    int
}

// Snap is one structure snapshot.
type Snap struct {
	// IDs are the ids of all reached heap entities (objects and arrays,
	// including the root), in visit order, without duplicates.
	IDs []uint64
	// Objects is the number of objects reached (arrays excluded): the
	// size of a recursive structure.
	Objects int
	// ArrayRefs counts non-null references traversed inside arrays that
	// are part of the structure.
	ArrayRefs int
	// typeCounts tallies objects per class name.
	typeCounts []typeCount
	// StrKeys are the string element identity keys usable for input
	// unification, in visit order. They are deduplicated only when the
	// snapshot counts unique elements (see uniq); otherwise a string held
	// by several slots repeats, which identification and claiming
	// tolerate. Reference keys need no separate record: every referenced
	// element also appears in IDs and is claimed there. Raw primitive
	// values are excluded because equal values do not imply identity.
	StrKeys []string
	// uniq is the set of all element keys, for the unique-elements size
	// strategy (array roots only). It is nil unless the snapshot counts
	// unique elements: Take always does, a registry's scratch snapshot
	// only under UniqueElements, so capacity-sized array walks hash
	// nothing.
	uniq map[events.ElemKey]bool
	// CapacitySlots counts array slots recursively.
	CapacitySlots int
	// RootIsArray records what the snapshot was rooted at.
	RootIsArray bool

	vs    *visitSet       // traversal de-duplication
	stack []events.Entity // traversal scratch

	// rt and the cached visitor closures exist so the traversal loops pass
	// the same closure to every ForEachRef call: a closure literal inside
	// the node loop escapes through the interface call and is re-allocated
	// per node, which dominated the measured observation cost.
	rt        *rectype.Result
	isRec     func(fieldID int) bool // rt.IsRecursiveField, bound once per rt
	refBuf    []events.Entity        // RefBatcher scratch
	visitFn   func(fieldID int, target events.Entity)
	arrRefFn  func(fieldID int, target events.Entity)
	elemKeyFn func(key events.ElemKey)
	arrWalkFn func(fieldID int, target events.Entity)

	// Strong-connectivity detection (see Snap.symmetric): bal tracks, per
	// visited node, its recursive-edge out-degree minus in-degree, and
	// nzBal counts nodes whose balance is nonzero. When every node
	// balances, the edge multiset decomposes into cycles, so every member
	// can reach the root and therefore the whole snapshot — doubly-linked
	// and circular shapes both qualify. curID is the object being
	// expanded; symOK goes false on shapes the check does not cover
	// (arrays inside the structure).
	bal       events.Table[balSlot]
	balGen    uint32
	nzBal     int
	curID     uint64
	symOK     bool
	symmetric bool
}

// balSlot holds one node's generation-stamped degree balance.
type balSlot struct {
	gen uint32
	d   int32
}

// Size returns the snapshot's size under the given strategy: object count
// for structures; capacity or unique-element count for arrays.
func (s *Snap) Size(strat Strategy) int {
	if !s.RootIsArray {
		return s.Objects
	}
	if strat == UniqueElements {
		return len(s.uniq)
	}
	return s.CapacitySlots
}

// Has reports whether entity id was reached by the snapshot.
func (s *Snap) Has(id uint64) bool {
	for _, v := range s.IDs {
		if v == id {
			return true
		}
	}
	return false
}

// TypeCount returns the number of objects of class name that were reached.
func (s *Snap) TypeCount(name string) int {
	for _, tc := range s.typeCounts {
		if tc.name == name {
			return tc.n
		}
	}
	return 0
}

// Take computes the snapshot reachable from root. For object roots it
// follows recursive-type fields (per rt) and traverses arrays embedded in
// the structure; for array roots it records the array's elements and
// recurses into sub-arrays (multi-dimensional arrays), but does not expand
// element objects — objects are measured through structure snapshots.
func Take(root events.Entity, rt *rectype.Result) *Snap {
	s := &Snap{vs: &visitSet{}, uniq: map[events.ElemKey]bool{}}
	s.take(root, rt)
	return s
}

// take (re)fills s from root; s must be reset and own a visitSet.
func (s *Snap) take(root events.Entity, rt *rectype.Result) {
	if s.visitFn == nil {
		s.initVisitors()
	}
	if s.rt != rt {
		s.rt = rt
		s.isRec = rt.IsRecursiveField
	}
	s.vs.begin()
	s.symmetric = false
	s.RootIsArray = root.IsArray()
	if s.RootIsArray {
		s.walkArray(root)
	} else {
		s.takeStructure(root)
	}
}

// initVisitors builds the traversal closures exactly once per Snap; they
// read traversal state through s, so the same closure values serve every
// subsequent take.
func (s *Snap) initVisitors() {
	s.visitFn = func(fieldID int, target events.Entity) {
		// Follow fields (and arrays) only through recursive links.
		if s.rt.IsRecursiveField(fieldID) {
			s.edge(target.EntityID())
			s.push(target)
		}
	}
	s.arrRefFn = func(_ int, target events.Entity) {
		s.ArrayRefs++
		s.push(target)
	}
	s.elemKeyFn = func(key events.ElemKey) {
		if s.uniq != nil {
			if s.uniq[key] {
				return
			}
			s.uniq[key] = true
		}
		if str, ok := key.(string); ok && str != "" {
			s.StrKeys = append(s.StrKeys, str)
		}
	}
	s.arrWalkFn = func(_ int, target events.Entity) {
		if target.IsArray() {
			s.walkArray(target)
		} else if s.vs.add(target.EntityID()) {
			s.IDs = append(s.IDs, target.EntityID())
		}
	}
}

// push marks e visited and queues it for expansion.
func (s *Snap) push(e events.Entity) {
	if e == nil || !s.vs.add(e.EntityID()) {
		return
	}
	s.IDs = append(s.IDs, e.EntityID())
	s.stack = append(s.stack, e)
}

// reset clears s for reuse, retaining its backing storage.
func (s *Snap) reset() {
	s.IDs = s.IDs[:0]
	s.Objects, s.ArrayRefs, s.CapacitySlots = 0, 0, 0
	s.typeCounts = s.typeCounts[:0]
	s.StrKeys = s.StrKeys[:0]
	clear(s.uniq)
	s.RootIsArray = false
}

func (s *Snap) bumpType(name string) {
	for i := range s.typeCounts {
		if s.typeCounts[i].name == name {
			s.typeCounts[i].n++
			return
		}
	}
	s.typeCounts = append(s.typeCounts, typeCount{name, 1})
}

func (s *Snap) takeStructure(root events.Entity) {
	s.balGen++
	if s.balGen == 0 { // generation wrapped: slots are ambiguous, drop them
		s.bal = events.Table[balSlot]{}
		s.balGen = 1
	}
	s.symOK = true
	s.nzBal = 0
	s.push(root)
	for len(s.stack) > 0 {
		e := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		if e.IsArray() {
			// Arrays inside a structure: count non-null refs, continue into
			// elements (objects or nested arrays).
			s.symOK = false
			e.ForEachRef(s.arrRefFn)
			continue
		}
		s.Objects++
		s.bumpType(e.TypeName())
		s.curID = e.EntityID()
		if rb, ok := e.(events.RefBatcher); ok {
			s.refBuf = rb.AppendRefs(s.isRec, s.refBuf[:0])
			for _, t := range s.refBuf {
				s.edge(t.EntityID())
				s.push(t)
			}
		} else {
			e.ForEachRef(s.visitFn)
		}
	}
	s.symmetric = s.symOK && s.nzBal == 0
}

// edge records one recursive edge from the object being expanded, for the
// strong-connectivity check: every traversed node's out-degree and
// in-degree are tracked as a running balance. If all balances end at zero
// the edge multiset decomposes into cycles, so each edge lies on a cycle
// and every member of the snapshot can reach the root — and through it the
// whole snapshot. That is exactly the property that lets the registry
// reuse this snapshot's size for a later observation rooted at any member
// (Snap.symmetric). Self-loops cannot break it and are skipped.
func (s *Snap) edge(to uint64) {
	if !s.symOK || to == s.curID {
		return
	}
	s.bump(s.curID, 1)
	s.bump(to, -1)
}

// bump adjusts one node's degree balance, maintaining the nonzero count.
func (s *Snap) bump(id uint64, d int32) {
	sl := s.bal.Slot(id)
	if sl.gen != s.balGen {
		sl.gen, sl.d = s.balGen, 0
	}
	was := sl.d
	sl.d += d
	if was == 0 {
		s.nzBal++
	} else if sl.d == 0 {
		s.nzBal--
	}
}

// walkArray records one array of the snapshot: its capacity, its element
// identity keys, and — recursing into sub-arrays of multi-dimensional
// arrays — all reachable arrays. Element objects are recorded by id but
// not expanded; objects are measured through structure snapshots.
func (s *Snap) walkArray(e events.Entity) {
	if e == nil || !s.vs.add(e.EntityID()) {
		return
	}
	s.IDs = append(s.IDs, e.EntityID())
	s.CapacitySlots += e.Capacity()
	e.ForEachElemKey(s.elemKeyFn)
	e.ForEachRef(s.arrWalkFn)
}

// ---------------------------------------------------------------------------
// Input registry

// Input is one identified algorithm input: the union of all snapshots that
// were found equivalent over the program run.
type Input struct {
	// ID is the input's original id; after merges, Registry.Find maps any
	// id to its canonical representative.
	ID   int
	Kind Kind
	// MaxSize is the maximum size observed across all snapshots (§2.4:
	// the size of a changing structure is its maximum size).
	MaxSize int
	// MaxTypeCounts tracks the maximum per-type object counts observed.
	MaxTypeCounts map[string]int
	// MaxArrayRefs is the maximum array-reference count observed.
	MaxArrayRefs int
	// Observations counts snapshots unified into this input.
	Observations int

	// lastElems is the most recent snapshot's element set, kept only
	// under the AllElements criterion.
	lastElems map[uint64]bool

	// lastWrite is the registry write epoch of the most recent write into
	// this input (0 = never written). Maintained on canonical inputs only;
	// folded on merge.
	lastWrite uint64
	// memoFloor invalidates this input's snapshot-memo entries wholesale:
	// memo slots stamped before the floor are stale. Raised on merge,
	// because the union's extent may differ from either cached snapshot.
	memoFloor uint64

	// Whole-structure memo: when the input's last full snapshot had a
	// symmetric recursive-edge relation (Snap.symmetric), every member of
	// that snapshot reaches exactly the snapshot's extent, so an
	// observation rooted at ANY member — not just the cached root — can
	// reuse the size until the input is next written or merged. symStamp
	// identifies that snapshot (0 = none) and matches the members'
	// Registry.memberStamp entries; symEpoch/symMergeStamp pin the write
	// epoch and merge stamp it was taken at; symSize is its size.
	symStamp      uint64
	symEpoch      uint64
	symMergeStamp uint64
	symSize       int32
}

// Label renders a short description like "Node-based recursive structure"
// or "String[] array".
func (in *Input) Label() string {
	if in.Kind == KindArray {
		return "array input"
	}
	names := make([]string, 0, len(in.MaxTypeCounts))
	for n := range in.MaxTypeCounts {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return "recursive structure"
	}
	return fmt.Sprintf("%s-based recursive structure", strings.Join(names, "/"))
}

// Observation is the result of registering one snapshot.
type Observation struct {
	// InputID is the canonical input the snapshot was unified into.
	InputID int
	// Size is the size of this snapshot under the registry's strategy.
	Size int
}

// memoSlot is one cached snapshot observation, indexed by root entity id.
// Keyed by root because a snapshot from a different root of the same input
// may reach a different fragment (e.g. the tail of a singly linked list);
// per-root entries let a traversal loop, whose invocations observe
// successive nodes, hit from its second pass on.
type memoSlot struct {
	// epoch is the owning input's lastWrite at caching time; any later
	// write to the input invalidates the slot (checked lazily on lookup).
	epoch uint64
	// stamp is the registry's merge stamp at caching time; a slot stamped
	// before its input's memoFloor predates a merge and is stale. The
	// stamp is globally monotonic, so stale slots can never alias a later
	// valid state of any input.
	stamp uint64
	size  int32
	// owner is the canonical input id + 1 at caching time (0 = empty); a
	// root whose ownership moved without a merge (SameArray re-rooting)
	// must miss.
	owner int32
}

// Registry identifies inputs across snapshots ("Some Elements Equivalent")
// and tracks their sizes.
type Registry struct {
	rt    *rectype.Result
	strat Strategy
	crit  Criterion

	inputs []*Input
	parent []int // union-find over input ids

	entityOwner events.Table[int32]    // entity id -> input id + 1 (not canonical)
	memo        events.Table[memoSlot] // root entity id -> cached observation
	memberStamp events.Table[uint64]   // entity id -> symStamp of covering snapshot
	keyOwner    map[string]int         // string element key -> input id
	typeOwner   map[string]int         // SameType: signature -> input id
	writeEpoch  uint64
	mergeStamp  uint64 // bumped per merge; see memoSlot.stamp
	symGen      uint64 // issues Input.symStamp values

	// memoOff disables the incremental snapshot memo (ablation: every
	// Observe re-traverses, the paper's measured behaviour).
	memoOff    bool
	memoHits   uint64
	memoMisses uint64

	// snap and vs are scratch reused across Observe calls so the hot path
	// allocates nothing.
	snap Snap
	vs   visitSet
	// candList and unowned are scratch reused across overlapCandidates
	// calls: the candidate inputs, and the string keys found without an
	// owner.
	candList []int
	unowned  []string
}

// NewRegistry creates an input registry with the paper's default
// criterion (Some Elements Equivalent).
func NewRegistry(rt *rectype.Result, strat Strategy) *Registry {
	return NewRegistryWith(rt, strat, SomeElements)
}

// NewRegistryWith creates an input registry with an explicit equivalence
// criterion (§2.4).
func NewRegistryWith(rt *rectype.Result, strat Strategy, crit Criterion) *Registry {
	r := &Registry{
		rt:        rt,
		strat:     strat,
		crit:      crit,
		keyOwner:  map[string]int{},
		typeOwner: map[string]int{},
	}
	r.snap.vs = &r.vs
	if strat == UniqueElements {
		r.snap.uniq = map[events.ElemKey]bool{}
	}
	return r
}

// Criterion returns the registry's equivalence criterion.
func (r *Registry) Criterion() Criterion { return r.crit }

// ApproxBytes estimates the registry's live heap footprint. It is an
// O(#inputs) pass over table lengths and map sizes — cheap enough for the
// profiler's memory-limit check to poll — and deliberately coarse: the
// constants approximate Go's per-entry overheads rather than measure them.
func (r *Registry) ApproxBytes() int64 {
	const (
		memoSlotBytes = 24 // two uint64 epochs + two int32s
		mapEntryBytes = 56 // rough per-entry cost of a small-key Go map
		inputBytes    = 176
	)
	b := int64(r.entityOwner.Len())*4 +
		int64(r.memo.Len())*memoSlotBytes +
		int64(r.memberStamp.Len())*8 +
		int64(r.vs.marks.Len())*4 +
		int64(len(r.parent))*8 +
		int64(len(r.keyOwner)+len(r.typeOwner))*mapEntryBytes
	for _, in := range r.inputs {
		b += inputBytes
		b += int64(len(in.MaxTypeCounts)+len(in.lastElems)) * mapEntryBytes
	}
	return b
}

// Strategy returns the registry's array size strategy.
func (r *Registry) Strategy() Strategy { return r.strat }

// NoteWrite bumps the write epoch and conservatively marks every input
// dirty: all cached sizes are invalid after the write. Prefer NoteWriteTo,
// which invalidates only the written structure's cache.
func (r *Registry) NoteWrite() {
	r.writeEpoch++
	for i, in := range r.inputs {
		if r.parent[i] == i {
			in.lastWrite = r.writeEpoch
		}
	}
}

// NoteWriteTo records a write into entity e, marking only the input owning
// e dirty. A write to an entity not claimed by any input needs no
// invalidation: an unclaimed entity was unreachable from every cached
// snapshot (snapshots claim everything they reach), and attaching it to a
// known structure requires a further write to one of that structure's own
// (claimed) entities.
func (r *Registry) NoteWriteTo(e events.Entity) {
	r.writeEpoch++
	if p := r.entityOwner.Peek(e.EntityID()); p != nil && *p != 0 {
		r.inputs[r.Find(int(*p-1))].lastWrite = r.writeEpoch
	}
}

// WriteEpoch returns the current global write epoch.
func (r *Registry) WriteEpoch() uint64 { return r.writeEpoch }

// InputEpoch returns the write epoch of the last write into input id
// (any id unified into the input; 0 when the input was never written).
func (r *Registry) InputEpoch(id int) uint64 {
	if id < 0 || id >= len(r.inputs) {
		return 0
	}
	return r.inputs[r.Find(id)].lastWrite
}

// SetMemoization toggles the incremental snapshot memo (enabled by
// default). Disabling it restores the paper's measured behaviour: a full
// O(size) traversal on every observation.
func (r *Registry) SetMemoization(on bool) { r.memoOff = !on }

// MemoStats reports how many observations were served from the snapshot
// memo versus by full traversal.
func (r *Registry) MemoStats() (hits, misses uint64) {
	return r.memoHits, r.memoMisses
}

// Find returns the canonical input id for id.
func (r *Registry) Find(id int) int {
	for r.parent[id] != id {
		r.parent[id] = r.parent[r.parent[id]]
		id = r.parent[id]
	}
	return id
}

// Input returns the canonical input for id.
func (r *Registry) Input(id int) *Input { return r.inputs[r.Find(id)] }

// CanonicalIDs returns the sorted ids of all canonical inputs.
func (r *Registry) CanonicalIDs() []int {
	var out []int
	for i := range r.inputs {
		if r.Find(i) == i {
			out = append(out, i)
		}
	}
	return out
}

// InputOf returns the canonical input id currently associated with entity
// e, or -1 when e has not been seen in any snapshot.
func (r *Registry) InputOf(e events.Entity) int {
	return r.InputOfID(e.EntityID())
}

// InputOfID is InputOf by raw entity id.
func (r *Registry) InputOfID(id uint64) int {
	if p := r.entityOwner.Peek(id); p != nil && *p != 0 {
		return r.Find(int(*p - 1))
	}
	return -1
}

// Observe snapshots the structure rooted at e, unifies it with known
// inputs, and records its size. Overlapping inputs are merged.
//
// When the root's owning input has not been written since its last full
// snapshot from the same root, the memoized observation is returned
// without re-traversing the structure (incremental snapshots, §5). The
// memo is bypassed under the AllElements criterion, which must compare
// exact element sets on every observation.
func (r *Registry) Observe(e events.Entity) Observation {
	if obs, ok := r.memoLookup(e); ok {
		return obs
	}
	if obs, ok := r.symLookup(e); ok {
		return obs
	}
	r.memoMisses++
	snap := &r.snap
	snap.reset()
	snap.take(e, r.rt)
	size := snap.Size(r.strat)

	target := r.identify(e, snap)

	in := r.inputs[target]
	in.Observations++
	if size > in.MaxSize {
		in.MaxSize = size
	}
	for _, tc := range snap.typeCounts {
		if tc.n > in.MaxTypeCounts[tc.name] {
			in.MaxTypeCounts[tc.name] = tc.n
		}
	}
	if snap.ArrayRefs > in.MaxArrayRefs {
		in.MaxArrayRefs = snap.ArrayRefs
	}
	if r.crit == AllElements {
		last := make(map[uint64]bool, len(snap.IDs))
		for _, id := range snap.IDs {
			last[id] = true
		}
		in.lastElems = last
	}

	// Claim the snapshot's elements and keys. Under SomeElements,
	// overlapCandidates looked every string key up and identify merged
	// every owner it found into target, so only the keys found without an
	// owner need storing: keyOwner is read only through Find, and only
	// under SomeElements, so re-storing an owned key would change nothing.
	// The other criteria never read keyOwner; they store every key so its
	// size, which ApproxBytes reports, does not depend on the criterion.
	for _, id := range snap.IDs {
		*r.entityOwner.Slot(id) = int32(target) + 1
	}
	keys := snap.StrKeys
	if r.crit == SomeElements {
		keys = r.unowned
	}
	for _, key := range keys {
		r.keyOwner[key] = target
	}
	if r.memoUsable() {
		*r.memo.Slot(e.EntityID()) = memoSlot{
			epoch: in.lastWrite,
			stamp: r.mergeStamp,
			size:  int32(size),
			owner: int32(target) + 1,
		}
		if snap.symmetric {
			// Symmetric recursive-edge relation: any member of this
			// snapshot reaches exactly this extent, so stamp the members
			// and let observations from any of their roots reuse the size
			// until the input is written or merged.
			r.symGen++
			in.symStamp = r.symGen
			in.symEpoch = in.lastWrite
			in.symMergeStamp = r.mergeStamp
			in.symSize = int32(size)
			for _, id := range snap.IDs {
				*r.memberStamp.Slot(id) = r.symGen
			}
		}
	}
	return Observation{InputID: target, Size: size}
}

// symLookup serves an observation from the whole-structure memo: the root
// belongs to a known input whose last full snapshot was symmetric and
// covered the root, and no write or merge has hit the input since. See
// Input.symStamp.
func (r *Registry) symLookup(e events.Entity) (Observation, bool) {
	if !r.memoUsable() {
		return Observation{}, false
	}
	p := r.entityOwner.Peek(e.EntityID())
	if p == nil || *p == 0 {
		return Observation{}, false
	}
	target := r.Find(int(*p - 1))
	in := r.inputs[target]
	if in.symStamp == 0 || in.symEpoch != in.lastWrite || in.symMergeStamp < in.memoFloor {
		return Observation{}, false
	}
	ms := r.memberStamp.Peek(e.EntityID())
	if ms == nil || *ms != in.symStamp {
		return Observation{}, false
	}
	r.memoHits++
	in.Observations++
	return Observation{InputID: target, Size: int(in.symSize)}, true
}

// memoUsable reports whether the snapshot memo applies under the current
// configuration.
func (r *Registry) memoUsable() bool {
	return !r.memoOff && r.crit != AllElements
}

// memoLookup serves an observation from the memo when the root entity
// belongs to a known input whose cached snapshot was rooted at the same
// entity and no write or merge has hit the input since.
func (r *Registry) memoLookup(e events.Entity) (Observation, bool) {
	if !r.memoUsable() {
		return Observation{}, false
	}
	p := r.entityOwner.Peek(e.EntityID())
	if p == nil || *p == 0 {
		return Observation{}, false
	}
	target := r.Find(int(*p - 1))
	in := r.inputs[target]
	slot := r.memo.Peek(e.EntityID())
	if slot == nil || slot.owner == 0 ||
		r.Find(int(slot.owner-1)) != target ||
		slot.stamp < in.memoFloor ||
		slot.epoch != in.lastWrite {
		return Observation{}, false
	}
	if r.crit == SameArray && e.IsArray() && in.Kind != KindArray {
		// SameArray creates a fresh input for an array claimed by a
		// structure input; the memo must not short-circuit that.
		return Observation{}, false
	}
	r.memoHits++
	in.Observations++
	return Observation{InputID: target, Size: int(slot.size)}, true
}

// identify applies the equivalence criterion and returns the input the
// snapshot belongs to, creating or merging inputs as needed.
func (r *Registry) identify(root events.Entity, snap *Snap) int {
	switch r.crit {
	case SameType:
		sig := snap.typeSignature()
		if id, ok := r.typeOwner[sig]; ok {
			return r.Find(id)
		}
		id := r.newInput(snap)
		r.typeOwner[sig] = id
		return id

	case AllElements:
		// Unify only with an input whose last snapshot has exactly the
		// same element set.
		for _, c := range r.overlapCandidates(snap, false) {
			last := r.inputs[c].lastElems
			if len(last) != len(snap.IDs) {
				continue
			}
			equal := true
			for _, id := range snap.IDs {
				if !last[id] {
					equal = false
					break
				}
			}
			if equal {
				return c
			}
		}
		return r.newInput(snap)

	case SameArray:
		if snap.RootIsArray {
			// Identity only: the root array's own id decides.
			if owner := r.InputOfID(root.EntityID()); owner >= 0 {
				if r.inputs[owner].Kind == KindArray {
					return owner
				}
			}
			return r.newInput(snap)
		}
		fallthrough

	default: // SomeElements
		cands := r.overlapCandidates(snap, r.crit != SameArray)
		if len(cands) == 0 {
			return r.newInput(snap)
		}
		target := cands[0]
		for _, other := range cands[1:] {
			r.merge(target, other)
		}
		return target
	}
}

// overlapCandidates returns the canonical ids of all inputs sharing an
// element (or, when useKeys is set, an element identity key) with snap,
// sorted ascending. With useKeys it also leaves the string keys that have
// no owner yet in r.unowned, so claiming them costs no second lookup. The
// returned slice is a scratch buffer owned by the registry, valid only
// until the next call. Candidate sets are tiny (a snapshot rarely touches
// more than one or two known inputs), so linear de-duplication beats a
// set.
func (r *Registry) overlapCandidates(snap *Snap, useKeys bool) []int {
	out := r.candList[:0]
	add := func(owner int) {
		c := r.Find(owner)
		for _, v := range out {
			if v == c {
				return
			}
		}
		out = append(out, c)
	}
	for _, id := range snap.IDs {
		if p := r.entityOwner.Peek(id); p != nil && *p != 0 {
			add(int(*p - 1))
		}
	}
	if useKeys {
		r.unowned = r.unowned[:0]
		for _, key := range snap.StrKeys {
			if owner, ok := r.keyOwner[key]; ok {
				add(owner)
			} else {
				r.unowned = append(r.unowned, key)
			}
		}
	}
	sort.Ints(out)
	r.candList = out
	return out
}

// typeSignature renders the snapshot's element type set, the SameType key.
func (s *Snap) typeSignature() string {
	if s.RootIsArray {
		return "array" // arrays carry no object type counts
	}
	names := make([]string, 0, len(s.typeCounts))
	for _, tc := range s.typeCounts {
		names = append(names, tc.name)
	}
	sort.Strings(names)
	return "struct:" + strings.Join(names, "/")
}

func (r *Registry) newInput(snap *Snap) int {
	id := len(r.inputs)
	kind := KindStructure
	if snap.RootIsArray {
		kind = KindArray
	}
	r.inputs = append(r.inputs, &Input{
		ID:            id,
		Kind:          kind,
		MaxTypeCounts: map[string]int{},
	})
	r.parent = append(r.parent, id)
	return id
}

// merge unifies input b into input a (both canonical).
func (r *Registry) merge(a, b int) {
	if a == b {
		return
	}
	ia, ib := r.inputs[a], r.inputs[b]
	if ib.MaxSize > ia.MaxSize {
		ia.MaxSize = ib.MaxSize
	}
	for tn, c := range ib.MaxTypeCounts {
		if c > ia.MaxTypeCounts[tn] {
			ia.MaxTypeCounts[tn] = c
		}
	}
	if ib.MaxArrayRefs > ia.MaxArrayRefs {
		ia.MaxArrayRefs = ib.MaxArrayRefs
	}
	ia.Observations += ib.Observations
	if ib.lastWrite > ia.lastWrite {
		ia.lastWrite = ib.lastWrite
	}
	// The union's extent may differ from either cached snapshot.
	r.mergeStamp++
	ia.memoFloor = r.mergeStamp
	ib.memoFloor = r.mergeStamp
	r.parent[b] = a
}

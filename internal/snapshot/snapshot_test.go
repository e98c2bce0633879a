package snapshot

import (
	"testing"
	"testing/quick"

	"algoprof/internal/events"
	"algoprof/internal/rectype"
)

// ---------------------------------------------------------------------------
// Fake heap entities for precise control over structure shapes.

type ref struct {
	field  int
	target events.Entity
}

type fakeObj struct {
	id   uint64
	typ  string
	refs []ref
}

func (o *fakeObj) EntityID() uint64 { return o.id }
func (o *fakeObj) TypeName() string { return o.typ }
func (o *fakeObj) ClassID() int     { return 0 }
func (o *fakeObj) IsArray() bool    { return false }
func (o *fakeObj) Capacity() int    { return 0 }
func (o *fakeObj) ForEachRef(visit func(int, events.Entity)) {
	for _, r := range o.refs {
		visit(r.field, r.target)
	}
}
func (o *fakeObj) ForEachElemKey(func(events.ElemKey)) {}

type fakeArr struct {
	id   uint64
	typ  string
	cap  int
	keys []events.ElemKey
	subs []events.Entity // non-nil reference elements
}

func (a *fakeArr) EntityID() uint64 { return a.id }
func (a *fakeArr) TypeName() string { return a.typ }
func (a *fakeArr) ClassID() int     { return -1 }
func (a *fakeArr) IsArray() bool    { return true }
func (a *fakeArr) Capacity() int    { return a.cap }
func (a *fakeArr) ForEachRef(visit func(int, events.Entity)) {
	for _, s := range a.subs {
		visit(-1, s)
	}
}
func (a *fakeArr) ForEachElemKey(visit func(events.ElemKey)) {
	for _, k := range a.keys {
		visit(k)
	}
}

// rt builds a rectype result where field ids in rec are recursive.
func rt(numFields int, rec ...int) *rectype.Result {
	r := &rectype.Result{RecursiveField: make([]bool, numFields)}
	for _, f := range rec {
		r.RecursiveField[f] = true
	}
	return r
}

// list builds a singly linked list of n fakeObj nodes using field 0,
// starting ids at base. Returns head and all nodes.
func list(base uint64, n int) (*fakeObj, []*fakeObj) {
	nodes := make([]*fakeObj, n)
	for i := range nodes {
		nodes[i] = &fakeObj{id: base + uint64(i), typ: "Node"}
	}
	for i := 0; i+1 < n; i++ {
		nodes[i].refs = append(nodes[i].refs, ref{field: 0, target: nodes[i+1]})
	}
	return nodes[0], nodes
}

func TestStructureSnapshotCountsObjects(t *testing.T) {
	head, _ := list(1, 5)
	s := Take(head, rt(1, 0))
	if s.Objects != 5 {
		t.Errorf("Objects = %d, want 5", s.Objects)
	}
	if s.Size(Capacity) != 5 || s.Size(UniqueElements) != 5 {
		t.Errorf("structure size must be object count under either strategy")
	}
	if s.TypeCount("Node") != 5 {
		t.Errorf("TypeCount(Node) = %d", s.TypeCount("Node"))
	}
}

func TestStructureSnapshotStopsAtNonRecursiveFields(t *testing.T) {
	payload := &fakeObj{id: 100, typ: "Payload"}
	n1 := &fakeObj{id: 1, typ: "Node"}
	n2 := &fakeObj{id: 2, typ: "Node"}
	n1.refs = []ref{{field: 0, target: n2}, {field: 1, target: payload}}
	s := Take(n1, rt(2, 0)) // only field 0 is recursive
	if s.Objects != 2 {
		t.Errorf("Objects = %d, want 2 (payload not traversed)", s.Objects)
	}
	if s.Has(100) {
		t.Error("payload must not be in the snapshot")
	}
}

func TestStructureSnapshotHandlesCycles(t *testing.T) {
	// Doubly linked ring.
	a := &fakeObj{id: 1, typ: "Node"}
	b := &fakeObj{id: 2, typ: "Node"}
	a.refs = []ref{{0, b}}
	b.refs = []ref{{0, a}}
	s := Take(a, rt(1, 0))
	if s.Objects != 2 {
		t.Errorf("cyclic structure: Objects = %d, want 2", s.Objects)
	}
}

func TestStructureWithEmbeddedArray(t *testing.T) {
	// N-ary tree node with a children array (recursive field 0).
	c1 := &fakeObj{id: 2, typ: "Node"}
	c2 := &fakeObj{id: 3, typ: "Node"}
	kids := &fakeArr{id: 10, typ: "Node[]", cap: 4, subs: []events.Entity{c1, c2},
		keys: []events.ElemKey{events.RefKey(2), events.RefKey(3)}}
	root := &fakeObj{id: 1, typ: "Node", refs: []ref{{0, kids}}}
	s := Take(root, rt(1, 0))
	if s.Objects != 3 {
		t.Errorf("Objects = %d, want 3 (arrays not counted as objects)", s.Objects)
	}
	if s.ArrayRefs != 2 {
		t.Errorf("ArrayRefs = %d, want 2", s.ArrayRefs)
	}
	if !s.Has(10) {
		t.Error("embedded array must be in the entity set")
	}
}

func TestArraySnapshotCapacityVsUnique(t *testing.T) {
	a := &fakeArr{id: 1, typ: "int[]", cap: 1000,
		keys: []events.ElemKey{int64(0), int64(2), int64(4), int64(4)}}
	s := Take(a, rt(0))
	if s.Size(Capacity) != 1000 {
		t.Errorf("capacity size = %d, want 1000", s.Size(Capacity))
	}
	// Unique keys: {0, 2, 4} — duplicates collapse.
	if s.Size(UniqueElements) != 3 {
		t.Errorf("unique size = %d, want 3", s.Size(UniqueElements))
	}

	// The same rule at registry level, on repeated strings: the registry
	// measures the distinct count under UniqueElements and the slot count
	// under Capacity.
	strs := &fakeArr{id: 2, typ: "String[]", cap: 8,
		keys: []events.ElemKey{"x", "y", "x", "z", "y", "x"}}
	if got := NewRegistry(rt(0), UniqueElements).Observe(strs).Size; got != 3 {
		t.Errorf("registry unique size = %d, want 3", got)
	}
	if got := NewRegistry(rt(0), Capacity).Observe(strs).Size; got != 8 {
		t.Errorf("registry capacity size = %d, want 8", got)
	}
}

func TestMultiDimArrayCapacity(t *testing.T) {
	// Paper §3.4: new int[][]{new int[0], new int[1], new int[2]} has size
	// 3 + (0+1+2) = 6.
	s0 := &fakeArr{id: 2, typ: "int[]", cap: 0}
	s1 := &fakeArr{id: 3, typ: "int[]", cap: 1, keys: []events.ElemKey{int64(0)}}
	s2 := &fakeArr{id: 4, typ: "int[]", cap: 2, keys: []events.ElemKey{int64(0), int64(0)}}
	top := &fakeArr{id: 1, typ: "int[][]", cap: 3,
		subs: []events.Entity{s0, s1, s2},
		keys: []events.ElemKey{events.RefKey(2), events.RefKey(3), events.RefKey(4)}}
	s := Take(top, rt(0))
	if s.Size(Capacity) != 6 {
		t.Errorf("multi-dim capacity = %d, want 6", s.Size(Capacity))
	}
}

func TestRegistryIdentifiesSameStructure(t *testing.T) {
	head, nodes := list(1, 4)
	r := NewRegistry(rt(1, 0), Capacity)
	o1 := r.Observe(head)
	// Second snapshot from a different element of the same structure.
	o2 := r.Observe(nodes[2])
	if r.Find(o1.InputID) != r.Find(o2.InputID) {
		t.Error("snapshots of the same structure must unify (Some Elements Equivalent)")
	}
	if o2.Size != 2 {
		t.Errorf("snapshot from node 2 sees %d nodes, want 2", o2.Size)
	}
	if in := r.Input(o1.InputID); in.MaxSize != 4 {
		t.Errorf("MaxSize = %d, want 4", in.MaxSize)
	}
}

func TestRegistrySeparatesDisjointStructures(t *testing.T) {
	h1, _ := list(1, 3)
	h2, _ := list(100, 3)
	r := NewRegistry(rt(1, 0), Capacity)
	o1 := r.Observe(h1)
	o2 := r.Observe(h2)
	if r.Find(o1.InputID) == r.Find(o2.InputID) {
		t.Error("disjoint structures must be distinct inputs")
	}
	if len(r.CanonicalIDs()) != 2 {
		t.Errorf("canonical inputs = %v, want 2", r.CanonicalIDs())
	}
}

func TestRegistryMergesWhenStructuresConnect(t *testing.T) {
	h1, n1 := list(1, 3)
	h2, _ := list(100, 3)
	r := NewRegistry(rt(1, 0), Capacity)
	a := r.Observe(h1)
	b := r.Observe(h2)
	// Link the tail of list 1 to the head of list 2 (reporting the write,
	// as FieldPut would), then re-observe.
	n1[2].refs = append(n1[2].refs, ref{0, h2})
	r.NoteWriteTo(n1[2])
	c := r.Observe(h1)
	if r.Find(a.InputID) != r.Find(b.InputID) || r.Find(c.InputID) != r.Find(a.InputID) {
		t.Error("connected structures must merge into one input")
	}
	if c.Size != 6 {
		t.Errorf("merged snapshot size = %d, want 6", c.Size)
	}
	if len(r.CanonicalIDs()) != 1 {
		t.Errorf("canonical inputs = %v, want 1", r.CanonicalIDs())
	}
}

func TestRegistryGrowingStructureMaxSize(t *testing.T) {
	// Observe a list as it grows: max size rule (§2.4).
	r := NewRegistry(rt(1, 0), Capacity)
	head, nodes := list(1, 1)
	o := r.Observe(head)
	for i := 1; i < 6; i++ {
		n := &fakeObj{id: uint64(i + 1), typ: "Node"}
		tail := nodes[len(nodes)-1]
		tail.refs = append(tail.refs, ref{0, n})
		r.NoteWriteTo(tail)
		nodes = append(nodes, n)
		o = r.Observe(head)
	}
	in := r.Input(o.InputID)
	if in.MaxSize != 6 {
		t.Errorf("MaxSize = %d, want 6", in.MaxSize)
	}
	if in.Observations != 6 {
		t.Errorf("Observations = %d, want 6", in.Observations)
	}
}

func TestReallocatedStringArrayUnifies(t *testing.T) {
	// Listing 6: the grown backing array shares its string elements with
	// the old one, so both snapshots are the same input.
	old := &fakeArr{id: 1, typ: "String[]", cap: 4,
		keys: []events.ElemKey{"n0", "n1", "n2", "n3"}}
	grown := &fakeArr{id: 2, typ: "String[]", cap: 8,
		keys: []events.ElemKey{"n0", "n1", "n2", "n3", "n4"}}
	r := NewRegistry(rt(0), Capacity)
	a := r.Observe(old)
	b := r.Observe(grown)
	if r.Find(a.InputID) != r.Find(b.InputID) {
		t.Error("reallocated array must unify with its predecessor via shared elements")
	}
	if r.Input(a.InputID).MaxSize != 8 {
		t.Errorf("MaxSize = %d, want 8", r.Input(a.InputID).MaxSize)
	}
}

// TestRewalkClaimsNewlyStoredStrings pins the claim rule for string keys:
// a re-walk of an already-claimed array claims every string stored into it
// since the last walk, so a later fresh array holding only one of those
// strings joins the same input. Several strings are stored at once so that
// claiming any subset of them fails.
func TestRewalkClaimsNewlyStoredStrings(t *testing.T) {
	for _, strat := range []Strategy{Capacity, UniqueElements} {
		r := NewRegistryWith(rt(0), strat, SomeElements)
		arr := &fakeArr{id: 1, typ: "String[]", cap: 8,
			keys: []events.ElemKey{"a", "b", "a"}}
		first := r.Observe(arr)
		arr.keys = append(arr.keys, "c", "d", "b", "e", "f")
		r.NoteWriteTo(arr)
		if again := r.Observe(arr); r.Find(again.InputID) != r.Find(first.InputID) {
			t.Fatalf("%v: re-walk of a claimed array left its input", strat)
		}
		for i, s := range []string{"a", "b", "c", "d", "e", "f"} {
			fresh := &fakeArr{id: uint64(10 + i), typ: "String[]", cap: 1, keys: []events.ElemKey{s}}
			if got := r.Observe(fresh); r.Find(got.InputID) != r.Find(first.InputID) {
				t.Errorf("%v: fresh array holding only %q is a new input, want the array's input", strat, s)
			}
		}
		if n := len(r.CanonicalIDs()); n != 1 {
			t.Errorf("%v: canonical inputs = %d, want 1", strat, n)
		}
	}
}

func TestPrimitiveIntArraysDoNotUnifyByValue(t *testing.T) {
	// Equal int values in unrelated arrays must not merge them: primitive
	// values carry no identity.
	a1 := &fakeArr{id: 1, typ: "int[]", cap: 3, keys: []events.ElemKey{int64(5), int64(6)}}
	a2 := &fakeArr{id: 2, typ: "int[]", cap: 3, keys: []events.ElemKey{int64(5), int64(6)}}
	r := NewRegistry(rt(0), Capacity)
	x := r.Observe(a1)
	y := r.Observe(a2)
	if r.Find(x.InputID) == r.Find(y.InputID) {
		t.Error("distinct primitive arrays with equal values must stay distinct")
	}
}

func TestSameArrayIdentityUnifies(t *testing.T) {
	a := &fakeArr{id: 1, typ: "int[]", cap: 3, keys: []events.ElemKey{int64(1)}}
	r := NewRegistry(rt(0), Capacity)
	x := r.Observe(a)
	a.keys = append(a.keys, int64(2))
	y := r.Observe(a)
	if r.Find(x.InputID) != r.Find(y.InputID) {
		t.Error("same array object is the same input")
	}
}

func TestInputOfAndUnknown(t *testing.T) {
	head, nodes := list(1, 2)
	r := NewRegistry(rt(1, 0), Capacity)
	if got := r.InputOf(head); got != -1 {
		t.Errorf("unknown entity InputOf = %d, want -1", got)
	}
	o := r.Observe(head)
	if got := r.InputOf(nodes[1]); got != r.Find(o.InputID) {
		t.Errorf("InputOf(element) = %d, want %d", got, r.Find(o.InputID))
	}
}

func TestInputLabels(t *testing.T) {
	head, _ := list(1, 2)
	r := NewRegistry(rt(1, 0), Capacity)
	o := r.Observe(head)
	if got := r.Input(o.InputID).Label(); got != "Node-based recursive structure" {
		t.Errorf("label = %q", got)
	}
	arr := &fakeArr{id: 50, typ: "int[]", cap: 1}
	oa := r.Observe(arr)
	if got := r.Input(oa.InputID).Label(); got != "array input" {
		t.Errorf("array label = %q", got)
	}
}

func TestVertexEdgeTypeCounts(t *testing.T) {
	v1 := &fakeObj{id: 1, typ: "Vertex"}
	v2 := &fakeObj{id: 2, typ: "Vertex"}
	e1 := &fakeObj{id: 3, typ: "Edge"}
	v1.refs = []ref{{0, e1}}
	e1.refs = []ref{{1, v2}}
	s := Take(v1, rt(2, 0, 1))
	if s.TypeCount("Vertex") != 2 || s.TypeCount("Edge") != 1 {
		t.Errorf("TypeCounts = Vertex:%d Edge:%d", s.TypeCount("Vertex"), s.TypeCount("Edge"))
	}
	if s.Objects != 3 {
		t.Errorf("Objects = %d, want 3", s.Objects)
	}
}

func TestWriteEpoch(t *testing.T) {
	r := NewRegistry(rt(0), Capacity)
	e0 := r.WriteEpoch()
	r.NoteWrite()
	r.NoteWrite()
	if r.WriteEpoch() != e0+2 {
		t.Error("write epoch must advance per write")
	}
}

// Property: for random directed graphs over Node objects, the snapshot
// from any root sees exactly the set reachable by an independent BFS, and
// observing from every node unifies the whole weakly-connected component
// reachable forward from the first observation point.
func TestSnapshotReachabilityProperty(t *testing.T) {
	f := func(edges []uint16, n uint8) bool {
		size := int(n%12) + 2
		nodes := make([]*fakeObj, size)
		for i := range nodes {
			nodes[i] = &fakeObj{id: uint64(i + 1), typ: "Node"}
		}
		for _, e := range edges {
			from := int(e>>8) % size
			to := int(e&0xff) % size
			nodes[from].refs = append(nodes[from].refs, ref{field: 0, target: nodes[to]})
		}
		// Independent BFS from node 0.
		want := map[uint64]bool{}
		queue := []*fakeObj{nodes[0]}
		want[nodes[0].id] = true
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, r := range cur.refs {
				o := r.target.(*fakeObj)
				if !want[o.id] {
					want[o.id] = true
					queue = append(queue, o)
				}
			}
		}
		s := Take(nodes[0], rt(1, 0))
		if s.Objects != len(want) {
			return false
		}
		for id := range want {
			if !s.Has(id) {
				return false
			}
		}
		// Registry invariant: every node reachable from node 0 maps to the
		// same canonical input after observation.
		r := NewRegistry(rt(1, 0), Capacity)
		obs := r.Observe(nodes[0])
		canon := r.Find(obs.InputID)
		for id := range want {
			if r.InputOfID(id) != canon {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

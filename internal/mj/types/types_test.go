package types

import (
	"strings"
	"testing"

	"algoprof/internal/mj/parser"
)

func check(t *testing.T, src string) (*Program, error) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Check(prog)
}

func mustCheck(t *testing.T, src string) *Program {
	t.Helper()
	p, err := check(t, src)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return p
}

const mainStub = `class Main { public static void main() { } }`

func TestClassTable(t *testing.T) {
	p := mustCheck(t, `
class A { int x; B b; }
class B { A back; }
`+mainStub)
	a := p.Class("A")
	b := p.Class("B")
	if a == nil || b == nil {
		t.Fatal("classes missing")
	}
	if a.LookupField("x").Type != Int {
		t.Error("A.x should be int")
	}
	if a.LookupField("b").Type.Class != b {
		t.Error("A.b should be B")
	}
}

func TestInheritanceLayout(t *testing.T) {
	p := mustCheck(t, `
class Base { int a; int b; }
class Derived extends Base { int c; }
`+mainStub)
	d := p.Class("Derived")
	if len(d.Fields) != 3 {
		t.Fatalf("Derived has %d field slots, want 3", len(d.Fields))
	}
	if d.LookupField("a").Slot != 0 || d.LookupField("c").Slot != 2 {
		t.Errorf("slots: a=%d c=%d", d.LookupField("a").Slot, d.LookupField("c").Slot)
	}
	if !d.IsSubclassOf(p.Class("Base")) {
		t.Error("Derived should be subclass of Base")
	}
	if p.Class("Base").IsSubclassOf(d) {
		t.Error("Base is not a subclass of Derived")
	}
}

func TestMethodLookupThroughSuper(t *testing.T) {
	p := mustCheck(t, `
class Base { int get() { return 1; } }
class Derived extends Base { }
class Use { int f(Derived d) { return d.get(); } }
`+mainStub)
	m := p.Class("Derived").LookupMethod("get")
	if m == nil || m.Owner != p.Class("Base") {
		t.Error("method lookup through super failed")
	}
}

func TestInheritanceCycleRejected(t *testing.T) {
	_, err := check(t, `
class A extends B { }
class B extends A { }
`+mainStub)
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("want inheritance cycle error, got %v", err)
	}
}

func TestGenericsErasure(t *testing.T) {
	p := mustCheck(t, `
class Node<T> { Node<T> next; T value; }
`+mainStub)
	n := p.Class("Node")
	if n.LookupField("next").Type.Class != n {
		t.Error("Node<T>.next should erase to Node")
	}
	if n.LookupField("value").Type.Kind != KObject {
		t.Error("Node<T>.value should erase to Object")
	}
}

func TestMainDetection(t *testing.T) {
	p := mustCheck(t, mainStub)
	if p.Main == nil || p.Main.Name != "main" || !p.Main.Static {
		t.Fatalf("main not found: %+v", p.Main)
	}
	_, err := check(t, `class A { void f() { } }`)
	if err == nil || !strings.Contains(err.Error(), "main") {
		t.Fatalf("want missing-main error, got %v", err)
	}
}

func TestTypeErrors(t *testing.T) {
	cases := []struct {
		name, body string
	}{
		{"int-plus-bool", `int x = 1 + true;`},
		{"assign-bool-to-int", `int x = 0; x = true;`},
		{"if-non-bool", `if (1) { }`},
		{"while-non-bool", `while (1) { }`},
		{"undefined-var", `x = 1;`},
		{"undefined-field", `A a = new A(); a.nothere = 1;`},
		{"index-non-array", `int x = 1; int y = x[0];`},
		{"break-outside-loop", `break;`},
		{"this-in-static", `A a = this;`},
		{"arg-count", `g(1, 2);`},
		{"return-value-in-void", `return 5;`},
		{"inc-non-int", `boolean b = true; b++;`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := `class A { static void g(int x) { } public static void main() { ` + tc.body + ` } }`
			if _, err := check(t, src); err == nil {
				t.Errorf("want type error for %q", tc.body)
			}
		})
	}
}

func TestValidPrograms(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"null-assign", `class A { A next; public static void main() { A a = new A(); a.next = null; } }`},
		{"string-concat", `class A { public static void main() { String s = "n" + 1; s = s + true; } }`},
		{"ref-compare", `class A { public static void main() { A a = new A(); check(a != null); } }`},
		{"subtype-assign", `class B { } class D extends B { } class A { public static void main() { B b = new D(); } }`},
		{"object-erasure-assign", `class A { Object o; public static void main() { A a = new A(); a.o = new A(); A back = a.o; } }`},
		{"array-length", `class A { public static void main() { int[] xs = new int[3]; int n = xs.length; } }`},
		{"string-length", `class A { public static void main() { String s = "abc"; int n = s.length; } }`},
		{"multidim", `class A { public static void main() { int[][] m = new int[2][3]; m[0][1] = 5; } }`},
		{"builtins", `class A { public static void main() { int r = rand(10); int i = readInput(); writeOutput(r); print("x"); check(true); } }`},
		{"var-infer", `class A { public static void main() { var x = 1 + 2; var s = "a"; var a = new A(); } }`},
		{"ctor", `class P { int v; P(int v) { this.v = v; } } class A { public static void main() { P p = new P(3); } }`},
		{"static-call", `class B { static int f() { return 1; } } class A { public static void main() { int x = B.f(); } }`},
		{"recursion", `class A { static int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); } public static void main() { int x = fact(5); } }`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mustCheck(t, tc.src)
		})
	}
}

func TestDynamicDispatchOnObject(t *testing.T) {
	p := mustCheck(t, `
class Box<T> {
  T v;
  T get() { return v; }
}
class A {
  public static void main() {
    Box<A> b = new Box<A>();
    var got = b.get();
  }
}`)
	// Box.get returns erased Object.
	m := p.Class("Box").LookupMethod("get")
	if m.Ret.Kind != KObject {
		t.Errorf("Box.get return type = %v, want Object", m.Ret)
	}
}

func TestLocalSlots(t *testing.T) {
	p := mustCheck(t, `
class A {
  int f(int a, int b) {
    int c = a;
    { int d = b; c = d; }
    return c;
  }
  public static void main() { }
}`)
	m := p.Class("A").LookupMethod("f")
	// this + a + b + c + d = 5 slots
	if m.NumLocals != 5 {
		t.Errorf("NumLocals = %d, want 5", m.NumLocals)
	}
}

func TestStaticMethodHasNoThisSlot(t *testing.T) {
	p := mustCheck(t, `
class A {
  static int f(int a) { return a; }
  public static void main() { }
}`)
	m := p.Class("A").LookupMethod("f")
	if m.NumLocals != 1 {
		t.Errorf("NumLocals = %d, want 1 (no this)", m.NumLocals)
	}
}

func TestDuplicateDetection(t *testing.T) {
	for _, src := range []string{
		`class A { } class A { }` + mainStub,
		`class A { int x; int x; }` + mainStub,
		`class A { void f() { } void f() { } }` + mainStub,
		`class A { void f() { int x = 0; int x = 1; } }` + mainStub,
	} {
		if _, err := check(t, src); err == nil {
			t.Errorf("want duplicate error for %q", src)
		}
	}
}

func TestFieldIDsGloballyUnique(t *testing.T) {
	p := mustCheck(t, `
class A { int x; A a; }
class B { int y; B b; }
`+mainStub)
	seen := map[int]bool{}
	for _, f := range p.FieldsAll() {
		if seen[f.ID] {
			t.Errorf("duplicate field id %d", f.ID)
		}
		seen[f.ID] = true
		if p.FieldByID(f.ID) != f {
			t.Errorf("FieldByID(%d) mismatch", f.ID)
		}
	}
	for _, m := range p.Methods() {
		if p.MethodByID(m.ID) != m {
			t.Errorf("MethodByID(%d) mismatch", m.ID)
		}
	}
}

func TestAssignability(t *testing.T) {
	p := mustCheck(t, `class B { } class D extends B { }`+mainStub)
	b := ClassType(p.Class("B"))
	d := ClassType(p.Class("D"))
	cases := []struct {
		from, to *Type
		want     bool
	}{
		{Int, Int, true},
		{Int, Bool, false},
		{Null, b, true},
		{Null, Int, false},
		{d, b, true},
		{b, d, false},
		{b, Object, true},
		{Object, b, true},
		{ArrayOf(Int), ArrayOf(Int), true},
		{ArrayOf(Int), ArrayOf(Bool), false},
		{ArrayOf(Int), Object, true},
		{String, Object, true},
	}
	for _, tc := range cases {
		if got := tc.from.AssignableTo(tc.to); got != tc.want {
			t.Errorf("%s assignable to %s = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
}

func TestMoreTypeErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"unknown-superclass", `class A extends Nope { } class Main { public static void main() { } }`},
		{"unknown-field-type", `class A { Nope f; } class Main { public static void main() { } }`},
		{"unknown-new", `class Main { public static void main() { var x = new Nope(); } }`},
		{"ctor-arg-count", `class P { int v; P(int v) { this.v = v; } } class Main { public static void main() { P p = new P(); } }`},
		{"no-ctor-with-args", `class P { } class Main { public static void main() { P p = new P(1); } }`},
		{"static-through-instance", `class B { static int f() { return 1; } } class Main { public static void main() { B b = new B(); int x = b.f(); } }`},
		{"instance-through-class", `class B { int f() { return 1; } } class Main { public static void main() { int x = B.f(); } }`},
		{"call-on-int", `class Main { public static void main() { int x = 1; x.f(); } }`},
		{"string-field", `class Main { public static void main() { String s = "a"; int x = s.size; } }`},
		{"array-field", `class Main { public static void main() { int[] a = new int[1]; int x = a.size; } }`},
		{"bad-array-len", `class Main { public static void main() { int[] a = new int[true]; } }`},
		{"bad-index-type", `class Main { public static void main() { int[] a = new int[1]; int x = a[true]; } }`},
		{"rand-arg", `class Main { public static void main() { int x = rand(true); } }`},
		{"check-arg", `class Main { public static void main() { check(5); } }`},
		{"builtin-arity", `class Main { public static void main() { int x = rand(); } }`},
		{"concat-class", `class A { } class Main { public static void main() { A a = new A(); String s = "x" + a; } }`},
		{"var-void-init", `class Main { static void g() { } public static void main() { var x = g(); } }`},
		{"missing-return-type", `class Main { static int f() { return true; } public static void main() { } }`},
		{"return-missing-value", `class Main { static int f() { return; } public static void main() { } }`},
		{"dup-ctor", `class P { P() { } P() { } } class Main { public static void main() { } }`},
		{"multiple-mains", `class A { public static void main() { } } class Main { public static void main() { } }`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := check(t, tc.src); err == nil {
				t.Errorf("want type error")
			}
		})
	}
}

// TestArrayTypeNames: an array type renders as its element type plus
// "[]" per dimension, and the name is built once, by ArrayOf — the
// profiler asks every array it observes for it.
func TestArrayTypeNames(t *testing.T) {
	node := ClassType(&Class{Name: "Node"})
	cases := []struct {
		typ  *Type
		want string
	}{
		{ArrayOf(Int), "int[]"},
		{ArrayOf(ArrayOf(String)), "String[][]"},
		{ArrayOf(node), "Node[]"},
		{ArrayOf(ArrayOf(ArrayOf(Object))), "Object[][][]"},
	}
	for _, tc := range cases {
		if got := tc.typ.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
		if a := testing.AllocsPerRun(10, func() { _ = tc.typ.String() }); a != 0 {
			t.Errorf("%s: String() allocates %.0f times per call, want 0", tc.want, a)
		}
	}
}

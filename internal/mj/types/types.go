// Package types implements semantic analysis for MJ: class table
// construction with single inheritance and erasure generics, field and
// method layout, and a type checker that annotates the AST with the
// information the bytecode compiler needs (expression types, identifier
// resolutions, call targets, local variable slots).
package types

import (
	"fmt"

	"algoprof/internal/mj/ast"
)

// Kind discriminates the semantic types of MJ.
type Kind int

// Semantic type kinds.
const (
	KInt Kind = iota
	KBool
	KString
	KVoid
	KNull   // the type of the `null` literal
	KObject // erased generic / dynamic reference type
	KClass
	KArray
)

// Type is a semantic MJ type.
type Type struct {
	Kind  Kind
	Class *Class // for KClass
	Elem  *Type  // for KArray
	// name is an array type's String, built once by ArrayOf: the profiler
	// asks every array it observes for its type name.
	name string
}

// Pre-allocated singletons for the simple types.
var (
	Int    = &Type{Kind: KInt}
	Bool   = &Type{Kind: KBool}
	String = &Type{Kind: KString}
	Void   = &Type{Kind: KVoid}
	Null   = &Type{Kind: KNull}
	Object = &Type{Kind: KObject}
)

// ArrayOf returns the array type with the given element type.
func ArrayOf(elem *Type) *Type {
	return &Type{Kind: KArray, Elem: elem, name: elem.String() + "[]"}
}

// ClassType returns the type of instances of c.
func ClassType(c *Class) *Type { return &Type{Kind: KClass, Class: c} }

// String renders the type as MJ source text.
func (t *Type) String() string {
	switch t.Kind {
	case KInt:
		return "int"
	case KBool:
		return "boolean"
	case KString:
		return "String"
	case KVoid:
		return "void"
	case KNull:
		return "null"
	case KObject:
		return "Object"
	case KClass:
		return t.Class.Name
	case KArray:
		if t.name != "" {
			return t.name
		}
		return t.Elem.String() + "[]"
	}
	return "?"
}

// IsRef reports whether t is a reference type (object, string, array, null
// or erased Object).
func (t *Type) IsRef() bool {
	switch t.Kind {
	case KString, KNull, KObject, KClass, KArray:
		return true
	}
	return false
}

// Equal reports structural type equality.
func (t *Type) Equal(u *Type) bool {
	if t.Kind != u.Kind {
		return false
	}
	switch t.Kind {
	case KClass:
		return t.Class == u.Class
	case KArray:
		return t.Elem.Equal(u.Elem)
	}
	return true
}

// AssignableTo reports whether a value of type t may be assigned to a
// location of type u. MJ is erasure-typed: Object is assignable to and from
// every reference type (the VM checks representation at use sites), which is
// what lets generic containers compile without casts.
func (t *Type) AssignableTo(u *Type) bool {
	if t.Equal(u) {
		return true
	}
	switch {
	case t.Kind == KNull && u.IsRef():
		return true
	case t.Kind == KObject && u.IsRef():
		return true
	case t.IsRef() && u.Kind == KObject:
		return true
	case t.Kind == KClass && u.Kind == KClass:
		return t.Class.IsSubclassOf(u.Class)
	}
	return false
}

// ---------------------------------------------------------------------------
// Classes, fields, methods

// Class is a resolved MJ class.
type Class struct {
	ID    int
	Name  string
	Super *Class
	Decl  *ast.ClassDecl

	// Fields in slot order: inherited fields first, then own declarations.
	Fields []*Field
	// Methods declared in this class (not inherited), in declaration order.
	Methods []*Method
	Ctor    *Method

	fieldsByName  map[string]*Field
	methodsByName map[string]*Method
	typeParams    map[string]bool

	// refFields caches the reference-typed entries of Fields, precomputed
	// at resolution time for heap-graph walkers (snapshot traversal visits
	// every object's ref fields; scanning past value fields there is
	// measurable).
	refFields []*Field
}

// RefFields returns the class's reference-typed fields in slot order.
func (c *Class) RefFields() []*Field { return c.refFields }

// IsSubclassOf reports whether c equals or transitively extends s.
func (c *Class) IsSubclassOf(s *Class) bool {
	for x := c; x != nil; x = x.Super {
		if x == s {
			return true
		}
	}
	return false
}

// LookupField finds a field by name, searching superclasses.
func (c *Class) LookupField(name string) *Field {
	for x := c; x != nil; x = x.Super {
		if f, ok := x.fieldsByName[name]; ok {
			return f
		}
	}
	return nil
}

// LookupMethod finds a method by name, searching superclasses.
func (c *Class) LookupMethod(name string) *Method {
	for x := c; x != nil; x = x.Super {
		if m, ok := x.methodsByName[name]; ok {
			return m
		}
	}
	return nil
}

// Field is a resolved instance field.
type Field struct {
	ID    int // globally unique
	Name  string
	Type  *Type
	Slot  int // index into the object's field array
	Owner *Class
}

// QualifiedName returns "Class.field".
func (f *Field) QualifiedName() string { return f.Owner.Name + "." + f.Name }

// Method is a resolved method or constructor.
type Method struct {
	ID            int // globally unique
	Name          string
	Owner         *Class
	Static        bool
	IsConstructor bool
	Params        []*Type
	Ret           *Type
	Decl          *ast.MethodDecl

	// NumLocals is the frame size: `this` (if instance) + params + locals.
	NumLocals int
}

// QualifiedName returns "Class.method".
func (m *Method) QualifiedName() string { return m.Owner.Name + "." + m.Name }

// ---------------------------------------------------------------------------
// Builtins

// Builtin identifies an MJ builtin function.
type Builtin int

// Builtin functions available in every scope.
const (
	BuiltinNone        Builtin = iota
	BuiltinRand                // rand(n int) int : uniform in [0,n), deterministic per VM seed
	BuiltinReadInput           // readInput() int : consumes external input (Input Read event)
	BuiltinWriteOutput         // writeOutput(x) : produces external output (Output Write event)
	BuiltinPrint               // print(x) : debug print, no profiling event
	BuiltinCheck               // check(b boolean) : runtime assertion, traps on false
)

var builtinNames = map[string]Builtin{
	"rand":        BuiltinRand,
	"readInput":   BuiltinReadInput,
	"writeOutput": BuiltinWriteOutput,
	"print":       BuiltinPrint,
	"check":       BuiltinCheck,
}

// BuiltinName returns the source-level name of b.
func BuiltinName(b Builtin) string {
	for n, v := range builtinNames {
		if v == b {
			return n
		}
	}
	return "?"
}

// ---------------------------------------------------------------------------
// Symbols and check results

// SymbolKind discriminates what an identifier resolved to.
type SymbolKind int

// Identifier resolution kinds.
const (
	SymLocal SymbolKind = iota
	SymField            // implicit this.field
	SymClass            // class name used as a static-call receiver
)

// Symbol is the resolution of an *ast.Ident.
type Symbol struct {
	Kind  SymbolKind
	Slot  int // for SymLocal
	Field *Field
	Class *Class
	Type  *Type
}

// CallTarget is the resolution of an *ast.Call.
type CallTarget struct {
	Builtin Builtin // != BuiltinNone for builtin calls
	Method  *Method // static binding if known
	Dynamic bool    // true when the receiver is erased Object: resolve by name at runtime
	Name    string  // method name (used for dynamic dispatch)
}

// FieldRef is the resolution of an *ast.FieldAccess.
type FieldRef struct {
	Field     *Field // nil for dynamic access or array length
	ArrayLen  bool   // true for arr.length
	StringLen bool   // true for str.length
	Dynamic   bool   // access on erased Object: resolve by name at runtime
	Name      string
}

// Info carries all annotations the compiler needs.
type Info struct {
	Types       map[ast.Expr]*Type
	Idents      map[*ast.Ident]*Symbol
	Calls       map[*ast.Call]*CallTarget
	FieldAccess map[*ast.FieldAccess]*FieldRef
	LocalSlots  map[*ast.VarDecl]int
	NewClasses  map[*ast.New]*Class
	ArrayElems  map[*ast.NewArray]*Type // full array type of the expression
	// CatchSlots maps try/catch statements to the local slot of the
	// caught exception variable; CatchClasses to the handler's class.
	CatchSlots   map[*ast.TryCatch]int
	CatchClasses map[*ast.TryCatch]*Class
	// SuperCalls maps super(...) statements to the superclass constructor.
	SuperCalls map[*ast.SuperCall]*Method
}

// Program is a fully checked MJ program.
type Program struct {
	Classes []*Class
	Info    *Info

	// Main is the entry point: a static, parameterless method named "main".
	Main *Method

	classesByName map[string]*Class
	methodsByID   []*Method
	fieldsByID    []*Field
}

// Class returns the class with the given name, or nil.
func (p *Program) Class(name string) *Class { return p.classesByName[name] }

// MethodByID returns the method with the given global id.
func (p *Program) MethodByID(id int) *Method { return p.methodsByID[id] }

// FieldByID returns the field with the given global id.
func (p *Program) FieldByID(id int) *Field { return p.fieldsByID[id] }

// NumMethods returns the number of methods in the program.
func (p *Program) NumMethods() int { return len(p.methodsByID) }

// NumFields returns the number of fields in the program.
func (p *Program) NumFields() int { return len(p.fieldsByID) }

// Methods returns all methods in id order.
func (p *Program) Methods() []*Method { return p.methodsByID }

// FieldsAll returns all fields in id order.
func (p *Program) FieldsAll() []*Field { return p.fieldsByID }

// ---------------------------------------------------------------------------
// Checking

type checker struct {
	prog *Program
	errs []error

	// Per-method state.
	curClass  *Class
	curMethod *Method
	scopes    []map[string]*local
	nextSlot  int
	loopDepth int
}

type local struct {
	slot int
	typ  *Type
}

// Check builds the class table and type checks the whole program.
func Check(p *ast.Program) (*Program, error) {
	c := &checker{
		prog: &Program{
			Info: &Info{
				Types:        map[ast.Expr]*Type{},
				Idents:       map[*ast.Ident]*Symbol{},
				Calls:        map[*ast.Call]*CallTarget{},
				FieldAccess:  map[*ast.FieldAccess]*FieldRef{},
				LocalSlots:   map[*ast.VarDecl]int{},
				NewClasses:   map[*ast.New]*Class{},
				ArrayElems:   map[*ast.NewArray]*Type{},
				CatchSlots:   map[*ast.TryCatch]int{},
				CatchClasses: map[*ast.TryCatch]*Class{},
				SuperCalls:   map[*ast.SuperCall]*Method{},
			},
			classesByName: map[string]*Class{},
		},
	}
	c.declareClasses(p)
	c.resolveSupers(p)
	c.resolveMembers()
	c.checkBodies()
	c.findMain()
	if len(c.errs) > 0 {
		return c.prog, fmt.Errorf("typecheck: %d error(s), first: %w", len(c.errs), c.errs[0])
	}
	return c.prog, nil
}

// MustCheck panics on error; for known-good embedded workloads.
func MustCheck(p *ast.Program) *Program {
	prog, err := Check(p)
	if err != nil {
		panic(err)
	}
	return prog
}

func (c *checker) errorf(n ast.Node, format string, args ...any) {
	c.errs = append(c.errs, fmt.Errorf("%s: %s", n.Pos(), fmt.Sprintf(format, args...)))
}

func (c *checker) declareClasses(p *ast.Program) {
	for _, cd := range p.Classes {
		if _, dup := c.prog.classesByName[cd.Name]; dup {
			c.errorf(cd, "duplicate class %s", cd.Name)
			continue
		}
		cls := &Class{
			ID:            len(c.prog.Classes),
			Name:          cd.Name,
			Decl:          cd,
			fieldsByName:  map[string]*Field{},
			methodsByName: map[string]*Method{},
			typeParams:    map[string]bool{},
		}
		for _, tp := range cd.TypeParams {
			cls.typeParams[tp] = true
		}
		c.prog.Classes = append(c.prog.Classes, cls)
		c.prog.classesByName[cd.Name] = cls
	}
}

func (c *checker) resolveSupers(p *ast.Program) {
	for _, cls := range c.prog.Classes {
		if ext := cls.Decl.Extends; ext != nil {
			super, ok := c.prog.classesByName[ext.Name]
			if !ok {
				c.errorf(cls.Decl, "unknown superclass %s", ext.Name)
				continue
			}
			cls.Super = super
		}
	}
	// Reject inheritance cycles.
	for _, cls := range c.prog.Classes {
		slow, fast := cls, cls
		for fast != nil && fast.Super != nil {
			slow, fast = slow.Super, fast.Super.Super
			if slow == fast {
				c.errorf(cls.Decl, "inheritance cycle involving %s", cls.Name)
				cls.Super = nil
				break
			}
		}
	}
}

// resolveMembers lays out fields (inherited first) and declares methods.
// Classes are processed in topological order of the inheritance hierarchy.
func (c *checker) resolveMembers() {
	done := map[*Class]bool{}
	var resolve func(cls *Class)
	resolve = func(cls *Class) {
		if done[cls] {
			return
		}
		done[cls] = true
		if cls.Super != nil {
			resolve(cls.Super)
			cls.Fields = append(cls.Fields, cls.Super.Fields...)
		}
		c.curClass = cls
		for _, fd := range cls.Decl.Fields {
			if _, dup := cls.fieldsByName[fd.Name]; dup {
				c.errorf(fd, "duplicate field %s.%s", cls.Name, fd.Name)
				continue
			}
			f := &Field{
				ID:    len(c.prog.fieldsByID),
				Name:  fd.Name,
				Type:  c.resolveType(fd.Type),
				Slot:  len(cls.Fields),
				Owner: cls,
			}
			cls.Fields = append(cls.Fields, f)
			cls.fieldsByName[fd.Name] = f
			c.prog.fieldsByID = append(c.prog.fieldsByID, f)
		}
		for _, md := range cls.Decl.Methods {
			m := &Method{
				ID:            len(c.prog.methodsByID),
				Name:          md.Name,
				Owner:         cls,
				Static:        md.Static,
				IsConstructor: md.IsConstructor,
				Decl:          md,
			}
			for _, prm := range md.Params {
				m.Params = append(m.Params, c.resolveType(prm.Type))
			}
			switch {
			case md.IsConstructor:
				m.Ret = ClassType(cls)
			case md.Ret == nil:
				m.Ret = Void
			default:
				m.Ret = c.resolveType(md.Ret)
			}
			if md.IsConstructor {
				if cls.Ctor != nil {
					c.errorf(md, "duplicate constructor for %s", cls.Name)
					continue
				}
				cls.Ctor = m
			} else {
				if _, dup := cls.methodsByName[md.Name]; dup {
					c.errorf(md, "duplicate method %s.%s (MJ has no overloading)", cls.Name, md.Name)
					continue
				}
				cls.methodsByName[md.Name] = m
			}
			cls.Methods = append(cls.Methods, m)
			c.prog.methodsByID = append(c.prog.methodsByID, m)
		}
	}
	for _, cls := range c.prog.Classes {
		resolve(cls)
	}
	for _, cls := range c.prog.Classes {
		for _, f := range cls.Fields {
			if f.Type != nil && f.Type.IsRef() {
				cls.refFields = append(cls.refFields, f)
			}
		}
	}
	c.curClass = nil
}

// resolveType converts a syntactic type to a semantic type in the context of
// the current class (whose type parameters erase to Object).
func (c *checker) resolveType(t *ast.TypeExpr) *Type {
	var base *Type
	switch t.Name {
	case "int":
		base = Int
	case "boolean":
		base = Bool
	case "String":
		base = String
	case "void":
		base = Void
	case "Object":
		base = Object
	default:
		if c.curClass != nil && c.curClass.typeParams[t.Name] {
			base = Object // erasure
		} else if cls, ok := c.prog.classesByName[t.Name]; ok {
			base = ClassType(cls)
		} else {
			c.errorf(t, "unknown type %s", t.Name)
			base = Object
		}
	}
	for i := 0; i < t.Dims; i++ {
		base = ArrayOf(base)
	}
	return base
}

func (c *checker) findMain() {
	for _, cls := range c.prog.Classes {
		if m, ok := cls.methodsByName["main"]; ok && m.Static && len(m.Params) == 0 {
			if c.prog.Main != nil {
				c.errorf(m.Decl, "multiple main methods")
			}
			c.prog.Main = m
		}
	}
	if c.prog.Main == nil {
		c.errs = append(c.errs, fmt.Errorf("no static main() method found"))
	}
}

// ---------------------------------------------------------------------------
// Body checking

func (c *checker) checkBodies() {
	for _, cls := range c.prog.Classes {
		c.curClass = cls
		for _, m := range cls.Methods {
			c.checkMethod(m)
		}
	}
	c.curClass = nil
}

func (c *checker) checkMethod(m *Method) {
	c.curMethod = m
	c.scopes = []map[string]*local{{}}
	c.nextSlot = 0
	c.loopDepth = 0
	if !m.Static {
		c.nextSlot = 1 // slot 0 is `this`
	}
	for i, prm := range m.Decl.Params {
		c.declareLocal(prm, prm.Name, m.Params[i])
	}
	c.checkBlock(m.Decl.Body)
	m.NumLocals = c.nextSlot
	c.curMethod = nil
}

func (c *checker) pushScope() { c.scopes = append(c.scopes, map[string]*local{}) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declareLocal(n ast.Node, name string, t *Type) int {
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[name]; dup {
		c.errorf(n, "duplicate local %s", name)
	}
	slot := c.nextSlot
	c.nextSlot++
	top[name] = &local{slot: slot, typ: t}
	return slot
}

func (c *checker) lookupLocal(name string) *local {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if l, ok := c.scopes[i][name]; ok {
			return l
		}
	}
	return nil
}

func (c *checker) checkBlock(b *ast.Block) {
	c.pushScope()
	for _, s := range b.Stmts {
		c.checkStmt(s)
	}
	c.popScope()
}

func (c *checker) checkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.Block:
		c.checkBlock(s)
	case *ast.VarDecl:
		var t *Type
		if s.Type != nil {
			t = c.resolveType(s.Type)
			if s.Init != nil {
				it := c.checkExpr(s.Init)
				if !it.AssignableTo(t) {
					c.errorf(s, "cannot assign %s to %s %s", it, t, s.Name)
				}
			}
		} else {
			if s.Init == nil {
				c.errorf(s, "var declaration needs initializer")
				t = Object
			} else {
				t = c.checkExpr(s.Init)
				if t.Kind == KNull {
					t = Object
				}
				if t.Kind == KVoid {
					c.errorf(s, "cannot infer variable type from void expression")
					t = Object
				}
			}
		}
		c.prog.Info.LocalSlots[s] = c.declareLocal(s, s.Name, t)
	case *ast.ExprStmt:
		c.checkExpr(s.X)
	case *ast.AssignStmt:
		tt := c.checkExpr(s.Target)
		vt := c.checkExpr(s.Value)
		if !vt.AssignableTo(tt) {
			c.errorf(s, "cannot assign %s to %s", vt, tt)
		}
	case *ast.IncDecStmt:
		tt := c.checkExpr(s.Target)
		if tt.Kind != KInt {
			c.errorf(s, "++/-- needs int, got %s", tt)
		}
	case *ast.If:
		ct := c.checkExpr(s.Cond)
		if ct.Kind != KBool {
			c.errorf(s, "if condition must be boolean, got %s", ct)
		}
		c.checkStmt(s.Then)
		if s.Else != nil {
			c.checkStmt(s.Else)
		}
	case *ast.While:
		ct := c.checkExpr(s.Cond)
		if ct.Kind != KBool {
			c.errorf(s, "while condition must be boolean, got %s", ct)
		}
		c.loopDepth++
		c.checkStmt(s.Body)
		c.loopDepth--
	case *ast.For:
		c.pushScope()
		if s.Init != nil {
			c.checkStmt(s.Init)
		}
		if s.Cond != nil {
			ct := c.checkExpr(s.Cond)
			if ct.Kind != KBool {
				c.errorf(s, "for condition must be boolean, got %s", ct)
			}
		}
		if s.Post != nil {
			c.checkStmt(s.Post)
		}
		c.loopDepth++
		c.checkStmt(s.Body)
		c.loopDepth--
		c.popScope()
	case *ast.Return:
		want := c.curMethod.Ret
		if c.curMethod.IsConstructor {
			want = Void
		}
		if s.Value == nil {
			if want.Kind != KVoid {
				c.errorf(s, "missing return value (want %s)", want)
			}
			return
		}
		got := c.checkExpr(s.Value)
		if want.Kind == KVoid {
			c.errorf(s, "unexpected return value in void method")
		} else if !got.AssignableTo(want) {
			c.errorf(s, "cannot return %s as %s", got, want)
		}
	case *ast.SuperCall:
		if !c.curMethod.IsConstructor {
			c.errorf(s, "super(...) is only allowed in constructors")
			return
		}
		super := c.curClass.Super
		if super == nil {
			c.errorf(s, "class %s has no superclass", c.curClass.Name)
			return
		}
		if super.Ctor == nil {
			c.errorf(s, "superclass %s has no constructor", super.Name)
			return
		}
		if len(s.Args) != len(super.Ctor.Params) {
			c.errorf(s, "super(...): %d args, want %d", len(s.Args), len(super.Ctor.Params))
		}
		for i, a := range s.Args {
			at := c.checkExpr(a)
			if i < len(super.Ctor.Params) && !at.AssignableTo(super.Ctor.Params[i]) {
				c.errorf(a, "super arg %d: cannot use %s as %s", i+1, at, super.Ctor.Params[i])
			}
		}
		c.prog.Info.SuperCalls[s] = super.Ctor
	case *ast.Throw:
		vt := c.checkExpr(s.Value)
		if vt.Kind != KClass && vt.Kind != KObject {
			c.errorf(s, "can only throw class instances, got %s", vt)
		}
	case *ast.TryCatch:
		c.checkBlock(s.Body)
		ct := c.resolveType(s.CatchType)
		if ct.Kind != KClass {
			c.errorf(s, "catch type must be a class, got %s", ct)
		} else {
			c.prog.Info.CatchClasses[s] = ct.Class
		}
		c.pushScope()
		c.prog.Info.CatchSlots[s] = c.declareLocal(s, s.CatchName, ct)
		c.checkBlock(s.Handler)
		c.popScope()
	case *ast.Join:
		ht := c.checkExpr(s.Handle)
		if ht.Kind != KInt {
			c.errorf(s, "join needs an int thread handle, got %s", ht)
		}
	case *ast.Break, *ast.Continue:
		if c.loopDepth == 0 {
			c.errorf(s, "break/continue outside loop")
		}
	default:
		c.errorf(s, "unhandled statement %T", s)
	}
}

func (c *checker) setType(e ast.Expr, t *Type) *Type {
	c.prog.Info.Types[e] = t
	return t
}

func (c *checker) checkExpr(e ast.Expr) *Type {
	switch e := e.(type) {
	case *ast.IntLit:
		return c.setType(e, Int)
	case *ast.BoolLit:
		return c.setType(e, Bool)
	case *ast.StringLit:
		return c.setType(e, String)
	case *ast.NullLit:
		return c.setType(e, Null)
	case *ast.This:
		if c.curMethod.Static {
			c.errorf(e, "this in static method")
			return c.setType(e, Object)
		}
		return c.setType(e, ClassType(c.curClass))
	case *ast.Ident:
		return c.checkIdent(e)
	case *ast.FieldAccess:
		return c.checkFieldAccess(e)
	case *ast.Index:
		xt := c.checkExpr(e.X)
		it := c.checkExpr(e.Idx)
		if it.Kind != KInt {
			c.errorf(e, "array index must be int, got %s", it)
		}
		switch xt.Kind {
		case KArray:
			return c.setType(e, xt.Elem)
		case KObject:
			return c.setType(e, Object)
		default:
			c.errorf(e, "cannot index %s", xt)
			return c.setType(e, Object)
		}
	case *ast.Call:
		return c.checkCall(e)
	case *ast.Spawn:
		c.checkCall(e.Call)
		if tgt := c.prog.Info.Calls[e.Call]; tgt != nil && tgt.Method == nil {
			c.errorf(e, "spawn requires a statically resolved method call (not a builtin or dynamic call)")
		}
		return c.setType(e, Int)
	case *ast.New:
		return c.checkNew(e)
	case *ast.NewArray:
		return c.checkNewArray(e)
	case *ast.Binary:
		return c.checkBinary(e)
	case *ast.Unary:
		xt := c.checkExpr(e.X)
		switch e.Op {
		case ast.Neg:
			if xt.Kind != KInt {
				c.errorf(e, "unary - needs int, got %s", xt)
			}
			return c.setType(e, Int)
		default: // LNot
			if xt.Kind != KBool {
				c.errorf(e, "! needs boolean, got %s", xt)
			}
			return c.setType(e, Bool)
		}
	}
	c.errorf(e, "unhandled expression %T", e)
	return Object
}

func (c *checker) checkIdent(e *ast.Ident) *Type {
	if l := c.lookupLocal(e.Name); l != nil {
		c.prog.Info.Idents[e] = &Symbol{Kind: SymLocal, Slot: l.slot, Type: l.typ}
		return c.setType(e, l.typ)
	}
	if !c.curMethod.Static {
		if f := c.curClass.LookupField(e.Name); f != nil {
			c.prog.Info.Idents[e] = &Symbol{Kind: SymField, Field: f, Type: f.Type}
			return c.setType(e, f.Type)
		}
	}
	if cls, ok := c.prog.classesByName[e.Name]; ok {
		c.prog.Info.Idents[e] = &Symbol{Kind: SymClass, Class: cls, Type: ClassType(cls)}
		return c.setType(e, ClassType(cls))
	}
	c.errorf(e, "undefined identifier %s", e.Name)
	c.prog.Info.Idents[e] = &Symbol{Kind: SymLocal, Slot: 0, Type: Object}
	return c.setType(e, Object)
}

func (c *checker) checkFieldAccess(e *ast.FieldAccess) *Type {
	xt := c.checkExpr(e.X)
	ref := &FieldRef{Name: e.Name}
	c.prog.Info.FieldAccess[e] = ref
	switch xt.Kind {
	case KArray:
		if e.Name == "length" {
			ref.ArrayLen = true
			return c.setType(e, Int)
		}
		c.errorf(e, "arrays have no field %s", e.Name)
		return c.setType(e, Object)
	case KString:
		if e.Name == "length" {
			ref.StringLen = true
			return c.setType(e, Int)
		}
		c.errorf(e, "String has no field %s", e.Name)
		return c.setType(e, Object)
	case KClass:
		f := xt.Class.LookupField(e.Name)
		if f == nil {
			c.errorf(e, "class %s has no field %s", xt.Class.Name, e.Name)
			return c.setType(e, Object)
		}
		ref.Field = f
		return c.setType(e, f.Type)
	case KObject:
		ref.Dynamic = true
		return c.setType(e, Object)
	}
	c.errorf(e, "cannot access field %s of %s", e.Name, xt)
	return c.setType(e, Object)
}

func (c *checker) checkCall(e *ast.Call) *Type {
	tgt := &CallTarget{Name: e.Name}
	c.prog.Info.Calls[e] = tgt

	// Unqualified call: builtin, or method of the current class.
	if e.Recv == nil {
		if b, ok := builtinNames[e.Name]; ok {
			tgt.Builtin = b
			return c.checkBuiltin(e, b)
		}
		m := c.curClass.LookupMethod(e.Name)
		if m == nil {
			c.errorf(e, "undefined function or method %s", e.Name)
			c.checkArgs(e, nil)
			return c.setType(e, Object)
		}
		if c.curMethod.Static && !m.Static {
			c.errorf(e, "cannot call instance method %s from static context", e.Name)
		}
		tgt.Method = m
		c.checkArgs(e, m.Params)
		return c.setType(e, m.Ret)
	}

	// Static call through a class name?
	if id, ok := e.Recv.(*ast.Ident); ok && c.lookupLocal(id.Name) == nil {
		isField := !c.curMethod.Static && c.curClass.LookupField(id.Name) != nil
		if cls, isCls := c.prog.classesByName[id.Name]; isCls && !isField {
			c.prog.Info.Idents[id] = &Symbol{Kind: SymClass, Class: cls, Type: ClassType(cls)}
			c.setType(id, ClassType(cls))
			m := cls.LookupMethod(e.Name)
			if m == nil {
				c.errorf(e, "class %s has no method %s", cls.Name, e.Name)
				c.checkArgs(e, nil)
				return c.setType(e, Object)
			}
			if !m.Static {
				c.errorf(e, "method %s.%s is not static", cls.Name, e.Name)
			}
			tgt.Method = m
			c.checkArgs(e, m.Params)
			return c.setType(e, m.Ret)
		}
	}

	rt := c.checkExpr(e.Recv)
	switch rt.Kind {
	case KClass:
		m := rt.Class.LookupMethod(e.Name)
		if m == nil {
			c.errorf(e, "class %s has no method %s", rt.Class.Name, e.Name)
			c.checkArgs(e, nil)
			return c.setType(e, Object)
		}
		if m.Static {
			c.errorf(e, "calling static method %s through an instance", e.Name)
		}
		tgt.Method = m
		c.checkArgs(e, m.Params)
		return c.setType(e, m.Ret)
	case KObject:
		tgt.Dynamic = true
		c.checkArgs(e, nil)
		return c.setType(e, Object)
	}
	c.errorf(e, "cannot call method %s on %s", e.Name, rt)
	c.checkArgs(e, nil)
	return c.setType(e, Object)
}

func (c *checker) checkArgs(e *ast.Call, params []*Type) {
	if params != nil && len(e.Args) != len(params) {
		c.errorf(e, "call to %s: %d args, want %d", e.Name, len(e.Args), len(params))
	}
	for i, a := range e.Args {
		at := c.checkExpr(a)
		if params != nil && i < len(params) && !at.AssignableTo(params[i]) {
			c.errorf(a, "arg %d of %s: cannot use %s as %s", i+1, e.Name, at, params[i])
		}
	}
}

func (c *checker) checkBuiltin(e *ast.Call, b Builtin) *Type {
	argTypes := make([]*Type, len(e.Args))
	for i, a := range e.Args {
		argTypes[i] = c.checkExpr(a)
	}
	need := func(n int) bool {
		if len(e.Args) != n {
			c.errorf(e, "%s expects %d argument(s), got %d", e.Name, n, len(e.Args))
			return false
		}
		return true
	}
	switch b {
	case BuiltinRand:
		if need(1) && argTypes[0].Kind != KInt {
			c.errorf(e, "rand expects int, got %s", argTypes[0])
		}
		return c.setType(e, Int)
	case BuiltinReadInput:
		need(0)
		return c.setType(e, Int)
	case BuiltinWriteOutput, BuiltinPrint:
		need(1)
		return c.setType(e, Void)
	case BuiltinCheck:
		if need(1) && argTypes[0].Kind != KBool {
			c.errorf(e, "check expects boolean, got %s", argTypes[0])
		}
		return c.setType(e, Void)
	}
	return c.setType(e, Void)
}

func (c *checker) checkNew(e *ast.New) *Type {
	cls, ok := c.prog.classesByName[e.Type.Name]
	if !ok {
		c.errorf(e, "unknown class %s", e.Type.Name)
		return c.setType(e, Object)
	}
	c.prog.Info.NewClasses[e] = cls
	if cls.Ctor != nil {
		if len(e.Args) != len(cls.Ctor.Params) {
			c.errorf(e, "constructor %s: %d args, want %d", cls.Name, len(e.Args), len(cls.Ctor.Params))
		}
		for i, a := range e.Args {
			at := c.checkExpr(a)
			if i < len(cls.Ctor.Params) && !at.AssignableTo(cls.Ctor.Params[i]) {
				c.errorf(a, "constructor arg %d: cannot use %s as %s", i+1, at, cls.Ctor.Params[i])
			}
		}
	} else if len(e.Args) != 0 {
		c.errorf(e, "class %s has no constructor but got %d args", cls.Name, len(e.Args))
		for _, a := range e.Args {
			c.checkExpr(a)
		}
	}
	return c.setType(e, ClassType(cls))
}

func (c *checker) checkNewArray(e *ast.NewArray) *Type {
	elem := c.resolveType(e.Elem)
	for _, l := range e.Lens {
		lt := c.checkExpr(l)
		if lt.Kind != KInt {
			c.errorf(l, "array length must be int, got %s", lt)
		}
	}
	t := elem
	for i := 0; i < len(e.Lens)+e.ExtraDims; i++ {
		t = ArrayOf(t)
	}
	c.prog.Info.ArrayElems[e] = t
	return c.setType(e, t)
}

func (c *checker) checkBinary(e *ast.Binary) *Type {
	lt := c.checkExpr(e.L)
	rt := c.checkExpr(e.R)
	switch e.Op {
	case ast.Add:
		// String concatenation: either side String.
		if lt.Kind == KString || rt.Kind == KString {
			ok := func(t *Type) bool {
				return t.Kind == KString || t.Kind == KInt || t.Kind == KBool || t.Kind == KObject || t.Kind == KNull
			}
			if !ok(lt) || !ok(rt) {
				c.errorf(e, "cannot concatenate %s + %s", lt, rt)
			}
			return c.setType(e, String)
		}
		fallthrough
	case ast.Sub, ast.Mul, ast.Div, ast.Mod:
		if lt.Kind != KInt || rt.Kind != KInt {
			c.errorf(e, "%s needs int operands, got %s and %s", e.Op, lt, rt)
		}
		return c.setType(e, Int)
	case ast.Less, ast.Greater, ast.LessEq, ast.GreaterEq:
		if lt.Kind != KInt || rt.Kind != KInt {
			c.errorf(e, "%s needs int operands, got %s and %s", e.Op, lt, rt)
		}
		return c.setType(e, Bool)
	case ast.EqEq, ast.NotEq:
		comparable := lt.Equal(rt) ||
			(lt.IsRef() && rt.IsRef()) ||
			(lt.Kind == KNull && rt.IsRef()) || (rt.Kind == KNull && lt.IsRef())
		if !comparable {
			c.errorf(e, "cannot compare %s %s %s", lt, e.Op, rt)
		}
		return c.setType(e, Bool)
	case ast.LAnd, ast.LOr:
		if lt.Kind != KBool || rt.Kind != KBool {
			c.errorf(e, "%s needs boolean operands, got %s and %s", e.Op, lt, rt)
		}
		return c.setType(e, Bool)
	}
	c.errorf(e, "unhandled binary op %s", e.Op)
	return Object
}

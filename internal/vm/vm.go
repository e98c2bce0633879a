package vm

import (
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"

	"algoprof/internal/events"
	"algoprof/internal/mj/bytecode"
	"algoprof/internal/mj/types"
)

// Config controls one VM execution.
type Config struct {
	// Listener receives profiling events; nil disables all events.
	Listener events.Listener
	// Plan gates method/field/alloc/io events; nil disables them (loop
	// probes in rewritten bytecode still fire when Listener is set).
	Plan *events.Plan
	// InstrHook, if non-nil, is called before every executed instruction
	// with the method id and pc. Used by the basic-block baseline profiler.
	InstrHook func(methodID, pc int)
	// Journal, if non-nil, receives every entity birth and indexed array
	// element store regardless of Plan. The trace recorder uses it to
	// rebuild an exact shadow heap offline; non-recording runs leave it
	// nil and pay nothing.
	Journal events.Journal
	// NumSites is the number of path-counted access sites in the program
	// (Instrumented.NumSites, paths mode only); it sizes the per-site
	// first-touch table. Zero outside paths mode.
	NumSites int
	// Seed seeds the deterministic rand() builtin.
	Seed uint64
	// Input feeds the readInput() builtin; when exhausted, readInput
	// returns 0.
	Input []int64
	// MaxSteps bounds the number of executed instructions (0 = 1e9).
	MaxSteps uint64
	// MaxDepth bounds the call stack depth (0 = 10000).
	MaxDepth int
	// Watchdog, if non-nil, is polled every watchdogInterval instructions.
	// A non-nil return stops execution with that error; returning *Halt
	// marks the stop as a clean, caller-requested cancellation (deadline,
	// context cancel) rather than a program failure. The halt propagates
	// through every active frame like any error, so loop and method exit
	// events still fire and profiling listeners observe a balanced stream.
	// Spawned threads inherit and poll the same hook concurrently, so it
	// must be goroutine-safe in programs that spawn.
	Watchdog func() error
	// SpawnSession, if non-nil, provides each spawned thread's profiling
	// session, keyed by its deterministic thread id. A thread never shares
	// its parent's Listener/Journal — those are single-goroutine
	// by contract — so a VM with a Listener but no SpawnSession rejects
	// OpSpawn with a runtime error rather than racing two threads through
	// one listener. Returning a nil session runs that thread unprofiled.
	SpawnSession func(tid int) *ThreadSession
}

// ThreadSession is the per-thread profiling harness a spawned VM thread
// runs under: its own listener (a per-thread profiler, or a per-thread
// transport feeding one) and journal.
type ThreadSession struct {
	// Listener receives the thread's profiling events.
	Listener events.Listener
	// Plan gates the thread's method/field/alloc/io events.
	Plan *events.Plan
	// Journal receives the thread's entity births and element stores.
	Journal events.Journal
	// NumSites sizes the thread's first-touch table (paths mode).
	NumSites int
	// BindClock, if non-nil, is handed the thread's instruction counter
	// before it starts (pipeline producers stamp events with it).
	BindClock func(clock *uint64)
	// Close is called on the thread's own goroutine after it terminates,
	// with all its events emitted; a per-thread trace writer is sealed
	// here. Its error surfaces as the thread's failure.
	Close func() error
}

// watchdogInterval is how many instructions run between Watchdog polls —
// frequent enough that a deadline overshoots by microseconds, rare enough
// that the poll does not show up in interpreter profiles.
const watchdogInterval = 4096

// WatchdogInterval exposes the poll period to watchdog-hook composers: a
// hook invoked n times has observed roughly n·WatchdogInterval executed
// instructions, which is how the service daemon derives progress
// heartbeats without touching the interpreter's hot path.
const WatchdogInterval = watchdogInterval

// Halt is the error a Watchdog returns to stop execution cleanly. It is
// not an MJ-level failure: the run was cut short on purpose and its
// partial results are valid as far as they go.
type Halt struct {
	// Reason names what tripped ("deadline", "canceled", ...).
	Reason string
}

// Error implements error.
func (h *Halt) Error() string { return "vm: halted: " + h.Reason }

// PanicError is a Go panic recovered inside the interpreter or one of its
// listeners — a VM, instrumentation, or listener bug. Containing it lets
// the caller keep the outputs and profiling state accumulated so far and
// assemble a partial report instead of crashing the process.
type PanicError struct {
	// Val is the recovered panic value.
	Val any
	// Stack is the goroutine stack at recovery time.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("vm: panic: %v", e.Val) }

// Thrown is an in-flight MJ exception: a thrown object that no handler
// caught (yet). It propagates as an error through call frames; if it
// reaches Run, the exception was uncaught.
type Thrown struct {
	Obj *Object
}

// Error implements error.
func (t *Thrown) Error() string {
	return fmt.Sprintf("mj: uncaught exception %s@%d", t.Obj.Class.Name, t.Obj.ID)
}

// RuntimeError is an MJ execution failure (null dereference, bounds,
// division by zero, failed check, budget exhaustion, ...).
type RuntimeError struct {
	Msg    string
	Method string
	PC     int
}

// Error implements error.
func (e *RuntimeError) Error() string {
	return fmt.Sprintf("mj runtime error: %s (at %s pc=%d)", e.Msg, e.Method, e.PC)
}

// Thread-id encoding: a child's id appends its 1-based spawn ordinal to
// the parent's id, so ids are deterministic functions of the program's
// spawn structure regardless of goroutine scheduling. The main thread is
// id 0. Each thread gets a disjoint entity-id namespace at tid<<40; the
// main thread keeps the raw sequence, so single-threaded runs allocate
// exactly the ids they always did.
const (
	spawnBits          = 8
	maxSpawnsPerThread = 1<<spawnBits - 1
	maxSpawnDepth      = 3
	entityBaseShift    = events.SpanShift
)

// thread is one spawned VM thread in the run's registry.
type thread struct {
	tid  int
	vm   *VM
	done chan struct{} // closed after err and stats are final
	err  error

	// joined marks the handle claimed by a join (guarded by group mu);
	// merged marks its outputs folded into the joiner or the root.
	joined bool
	merged bool
}

// threadGroup is the registry shared by every VM of one run: the root and
// all spawned threads. It tracks live threads for the run-end sweep and
// accumulates finished threads' instruction/allocation counts.
type threadGroup struct {
	mu      sync.Mutex
	threads map[int]*thread
	instrs  uint64
	allocs  uint64
}

func (tg *threadGroup) register(th *thread) {
	tg.mu.Lock()
	defer tg.mu.Unlock()
	tg.threads[th.tid] = th
}

// claim resolves a join target and marks it claimed; a second join of the
// same handle is a program error.
func (tg *threadGroup) claim(tid int) (*thread, string) {
	tg.mu.Lock()
	defer tg.mu.Unlock()
	th, ok := tg.threads[tid]
	if !ok {
		return nil, fmt.Sprintf("join of unknown thread handle %d", tid)
	}
	if th.joined {
		return nil, fmt.Sprintf("thread %d already joined", tid)
	}
	th.joined = true
	return th, ""
}

// claimMerge marks th's outputs as folded exactly once.
func (tg *threadGroup) claimMerge(th *thread) bool {
	tg.mu.Lock()
	defer tg.mu.Unlock()
	if th.merged {
		return false
	}
	th.merged = true
	return true
}

// finish books a terminated thread's counters.
func (tg *threadGroup) finish(child *VM) {
	tg.mu.Lock()
	defer tg.mu.Unlock()
	tg.instrs += child.InstrCount
	tg.allocs += child.AllocCount
}

// all snapshots the registry sorted by thread id.
func (tg *threadGroup) all() []*thread {
	tg.mu.Lock()
	defer tg.mu.Unlock()
	out := make([]*thread, 0, len(tg.threads))
	for _, th := range tg.threads {
		out = append(out, th)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].tid < out[j].tid })
	return out
}

// openLoop is one active loop in a frame: a classic-probe loop (base -1)
// or a counted loop with its block of path counters in the VM arena.
type openLoop struct {
	id     int
	base   int // first arena slot of this invocation's counters; -1 = classic
	npaths int
	saved  int // enclosing loop's path register, restored on exit
}

type frame struct {
	fn        *bytecode.Function
	pc        int
	locals    []Value
	stack     []Value
	loopStack []openLoop // loops currently active in this frame
	pathReg   int        // Ball–Larus path register of the innermost counted loop
	emittedME bool       // whether MethodEntry was emitted for this frame
}

// VM executes one compiled MJ program.
type VM struct {
	prog *bytecode.Program
	cfg  Config

	frames []*frame
	// framePool recycles returned frames (with their locals and operand
	// stack capacity) across calls: per-call frame allocation was a top
	// source of GC churn, and the induced marking phases put write
	// barriers on the interpreter's hot value copies.
	framePool []*frame
	nextID    uint64
	rng       uint64
	inPos     int

	// limit is min(MaxSteps, nextPoll), so one compare per instruction
	// guards both the step budget and the Watchdog cadence; stepLimit
	// tells the two apart. nextPoll is the InstrCount at which the next
	// poll falls.
	limit    uint64
	nextPoll uint64

	// strConsts holds each function's string literals boxed once, indexed
	// by method id and then pc, so pushing a literal allocates nothing.
	// A function's row is built at its first literal push.
	strConsts [][]Value

	// Threading state. tid is this VM's deterministic thread id (0 for
	// the main thread), depth its spawn nesting depth, spawnOrd its count
	// of spawns so far; group is the run-wide thread registry, created
	// lazily at the first spawn and shared by every thread's VM.
	tid      int
	depth    int
	spawnOrd int
	group    *threadGroup

	// InstrCount is the number of executed bytecode instructions — the
	// deterministic stand-in for wall-clock time in the CCT baseline.
	InstrCount uint64
	// AllocCount is the number of heap allocations (objects + arrays).
	AllocCount uint64
	// Stdout collects print() output.
	Stdout []string
	// Output collects writeOutput() values.
	Output []Value

	// Path-counter state (paths mode). pathArena stacks the per-invocation
	// counter blocks of every active counted loop, across frames; each
	// openLoop's base indexes into it. siteEpoch/accessEpoch implement
	// once-per-segment site touches: a site fires SiteTouch only when its
	// epoch differs from the global one, and every repetition boundary
	// (loop or instrumented-method entry/exit) advances the global epoch.
	pathArena   []int64
	siteEpoch   []uint64
	accessEpoch uint64
	pl          events.PathListener // non-nil iff Listener is path-aware

	gate   gate
	vtable map[vtKey]*bytecode.Function
	byName map[nmKey]*types.Method
}

// gate caches the listener/plan decision for every probe class as direct
// boolean loads, so a disabled probe on the interpreter hot path costs one
// slice index instead of an interface method call through the Plan.
type gate struct {
	loops  bool // listener present: loop probes and method unwind fire
	arrays bool
	io     bool
	method []bool
	field  []bool
	alloc  []bool
}

func buildGate(prog *bytecode.Program, cfg Config) gate {
	g := gate{
		method: make([]bool, prog.Sem.NumMethods()),
		field:  make([]bool, prog.Sem.NumFields()),
		alloc:  make([]bool, len(prog.Sem.Classes)),
	}
	if cfg.Listener == nil {
		return g
	}
	g.loops = true
	p := cfg.Plan
	g.arrays = p != nil && p.Arrays
	g.io = p != nil && p.IO
	for i := range g.method {
		g.method[i] = p.WantsMethod(i)
	}
	for i := range g.field {
		g.field[i] = p.WantsField(i)
	}
	for i := range g.alloc {
		g.alloc[i] = p.WantsAlloc(i)
	}
	return g
}

type vtKey struct {
	classID  int
	methodID int
}

type nmKey struct {
	classID int
	name    string
}

// New creates a VM for prog.
func New(prog *bytecode.Program, cfg Config) *VM {
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 1_000_000_000
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 10_000
	}
	m := &VM{
		prog: prog,
		cfg:  cfg,
		rng:  cfg.Seed*2862933555777941757 + 3037000493,
		// A full interval before the first poll: even an already-expired
		// deadline lets the program execute a prefix, so the halted run
		// still carries events and a nonzero instruction count.
		nextPoll: watchdogInterval,
		gate:     buildGate(prog, cfg),
		vtable:   map[vtKey]*bytecode.Function{},
		byName:   map[nmKey]*types.Method{},
		// Epoch 1 so the zero-valued siteEpoch table means "never touched".
		accessEpoch: 1,
		siteEpoch:   make([]uint64, cfg.NumSites),
		strConsts:   make([][]Value, len(prog.Funcs)),
	}
	m.limit = min(cfg.MaxSteps, m.nextPoll)
	if pl, ok := cfg.Listener.(events.PathListener); ok {
		m.pl = pl
	}
	return m
}

// Run executes the program's main method. Go panics raised inside the
// interpreter or its listeners are contained and returned as *PanicError,
// so a buggy listener cannot take the whole process down.
func (m *VM) Run() (err error) {
	func() {
		defer containPanic(&err)
		err = m.call(m.prog.Main(), nil)
	}()
	// Await every spawned thread even when main failed: the registry must
	// be fully accounted (no leaked goroutines, no half-written sessions)
	// before the caller finalizes profilers or salvages a partial run.
	if terr := m.awaitThreads(); err == nil {
		err = terr
	}
	return err
}

// CallStatic runs an arbitrary static niladic method; used by harnesses.
// Panics are contained like Run's.
func (m *VM) CallStatic(qualified string) (err error) {
	func() {
		defer containPanic(&err)
		for _, fn := range m.prog.Funcs {
			if fn.Method.QualifiedName() == qualified && fn.Method.Static && len(fn.Method.Params) == 0 {
				err = m.call(fn, nil)
				return
			}
		}
		err = fmt.Errorf("vm: no static niladic method %q", qualified)
	}()
	if terr := m.awaitThreads(); err == nil {
		err = terr
	}
	return err
}

// containPanic converts an in-flight panic into a *PanicError on *err.
func containPanic(err *error) {
	if r := recover(); r != nil {
		*err = &PanicError{Val: r, Stack: debug.Stack()}
	}
}

func (m *VM) fail(f *frame, format string, args ...any) error {
	return m.failAt(f, f.pc, format, args...)
}

// failAt is fail for the interpreter loop, whose current pc lives in a
// local rather than in f.
func (m *VM) failAt(f *frame, pc int, format string, args ...any) error {
	return &RuntimeError{
		Msg:    fmt.Sprintf(format, args...),
		Method: f.fn.Name(),
		PC:     pc,
	}
}

func (m *VM) newObject(cls *types.Class) *Object {
	m.nextID++
	m.AllocCount++
	o := &Object{ID: m.nextID, Class: cls, Fields: make([]Value, len(cls.Fields))}
	for i, f := range cls.Fields {
		switch f.Type.Kind {
		case types.KInt:
			o.Fields[i] = intVal(0)
		case types.KBool:
			o.Fields[i] = boolVal(false)
		case types.KString:
			o.Fields[i] = nullVal
		default:
			o.Fields[i] = nullVal
		}
	}
	if m.cfg.Journal != nil {
		m.cfg.Journal.AllocEntity(o, events.ElemModeAuto)
	}
	return o
}

func (m *VM) newArray(t *types.Type, n int) *Array {
	m.nextID++
	m.AllocCount++
	a := &Array{ID: m.nextID, Type: t, Elems: make([]Value, n)}
	var zero Value
	switch t.Elem.Kind {
	case types.KInt:
		zero = intVal(0)
	case types.KBool:
		zero = boolVal(false)
	default:
		zero = nullVal
	}
	for i := range a.Elems {
		a.Elems[i] = zero
	}
	if m.cfg.Journal != nil {
		mode := events.ElemModeVal
		if t.Elem.IsRef() {
			mode = events.ElemModeRef
		}
		m.cfg.Journal.AllocEntity(a, mode)
	}
	return a
}

// resolveVirtual finds the actual target of a virtual call: the method with
// the declared method's name in the receiver's class chain. Constructors
// dispatch exactly.
func (m *VM) resolveVirtual(recv *Object, declared *types.Method) *bytecode.Function {
	if declared.IsConstructor {
		return m.prog.FuncByID(declared.ID)
	}
	key := vtKey{classID: recv.Class.ID, methodID: declared.ID}
	if fn, ok := m.vtable[key]; ok {
		return fn
	}
	target := recv.Class.LookupMethod(declared.Name)
	if target == nil {
		target = declared
	}
	fn := m.prog.FuncByID(target.ID)
	m.vtable[key] = fn
	return fn
}

func (m *VM) rand(n int64) int64 {
	// xorshift64*, deterministic per seed.
	m.rng ^= m.rng >> 12
	m.rng ^= m.rng << 25
	m.rng ^= m.rng >> 27
	r := m.rng * 2685821657736338717
	if n <= 0 {
		return 0
	}
	return int64(r % uint64(n))
}

// call pushes a frame for fn with the given arguments (receiver first for
// instance methods) and interprets it to completion. The return value, if
// any, is pushed onto the caller's operand stack.
func (m *VM) call(fn *bytecode.Function, args []Value) error {
	if len(m.frames) >= m.cfg.MaxDepth {
		if len(m.frames) > 0 {
			return m.fail(m.frames[len(m.frames)-1], "stack overflow (depth %d)", m.cfg.MaxDepth)
		}
		return &RuntimeError{Msg: "stack overflow"}
	}
	var f *frame
	if n := len(m.framePool); n > 0 {
		f = m.framePool[n-1]
		m.framePool = m.framePool[:n-1]
	} else {
		f = &frame{}
	}
	f.fn = fn
	f.pc = 0
	if cap(f.locals) >= fn.NumLocals {
		// Pooled storage was zeroed when the frame was recycled.
		f.locals = f.locals[:fn.NumLocals]
	} else {
		f.locals = make([]Value, fn.NumLocals)
	}
	f.stack = f.stack[:0]
	f.loopStack = f.loopStack[:0]
	f.pathReg = 0
	f.emittedME = false
	copy(f.locals, args)
	m.frames = append(m.frames, f)

	if m.gate.method[fn.Method.ID] {
		f.emittedME = true
		m.accessEpoch++
		m.cfg.Listener.MethodEntry(fn.Method.ID)
	}

	err := m.interpret(f)

	// Unwind loop probes that are still active (early return out of loops,
	// or an exception propagating past this frame), mirroring AlgoProf's
	// handling of exceptional exits. Counted loops flush their accumulated
	// path counters; the in-flight partial path is dropped.
	for i := len(f.loopStack) - 1; i >= 0; i-- {
		ol := &f.loopStack[i]
		if ol.base >= 0 {
			m.flushPathLoop(ol)
		}
		m.accessEpoch++
		if m.gate.loops {
			m.cfg.Listener.LoopExit(ol.id)
		}
	}
	if f.emittedME {
		m.accessEpoch++
		m.cfg.Listener.MethodExit(fn.Method.ID)
	}
	m.frames = m.frames[:len(m.frames)-1]
	// Zero the recycled storage over its full capacity: the pool must not
	// keep dead program objects reachable, and the next call borrows the
	// slices assuming they are zeroed.
	f.locals = f.locals[:cap(f.locals)]
	clear(f.locals)
	f.stack = f.stack[:cap(f.stack)]
	clear(f.stack)
	m.framePool = append(m.framePool, f)
	return err
}

// spawn starts target on a new VM thread with args already evaluated on
// the spawning thread, returning the child's deterministic thread id. The
// child is a separate VM sharing the immutable program and live heap: it
// has its own frames, frame pool, rng (derived from the seed and its
// tid), path arena, and a disjoint entity-id namespace, and it polls the
// same watchdog. Its profiling session comes from Config.SpawnSession;
// its Input is empty (readInput on a spawned thread yields 0).
func (m *VM) spawn(f *frame, target *bytecode.Function, args []Value) (int, error) {
	if m.cfg.Listener != nil && m.cfg.SpawnSession == nil {
		return 0, m.fail(f, "spawn in a profiled run without a per-thread session provider")
	}
	if m.depth+1 > maxSpawnDepth {
		return 0, m.fail(f, "spawn nesting deeper than %d", maxSpawnDepth)
	}
	if m.spawnOrd >= maxSpawnsPerThread {
		return 0, m.fail(f, "thread spawned more than %d threads", maxSpawnsPerThread)
	}
	if m.group == nil {
		m.group = &threadGroup{threads: map[int]*thread{}}
	}
	m.spawnOrd++
	tid := m.tid<<spawnBits | m.spawnOrd

	ccfg := m.cfg
	ccfg.Listener = nil
	ccfg.Plan = nil
	ccfg.Journal = nil
	ccfg.InstrHook = nil
	ccfg.Input = nil
	ccfg.NumSites = 0
	ccfg.Seed = m.cfg.Seed ^ (uint64(tid)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019)
	var sessClose func() error
	var bindClock func(*uint64)
	if m.cfg.SpawnSession != nil {
		if sess := m.cfg.SpawnSession(tid); sess != nil {
			ccfg.Listener = sess.Listener
			ccfg.Plan = sess.Plan
			ccfg.Journal = sess.Journal
			ccfg.NumSites = sess.NumSites
			sessClose = sess.Close
			bindClock = sess.BindClock
		}
	}
	child := New(m.prog, ccfg)
	child.tid = tid
	child.depth = m.depth + 1
	child.group = m.group
	child.nextID = uint64(tid) << entityBaseShift
	if bindClock != nil {
		bindClock(&child.InstrCount)
	}
	th := &thread{tid: tid, vm: child, done: make(chan struct{})}
	m.group.register(th)
	go func() {
		err := child.runSpawned(target, args)
		if sessClose != nil {
			if cerr := sessClose(); cerr != nil && err == nil {
				err = cerr
			}
		}
		th.err = err
		m.group.finish(child)
		close(th.done)
	}()
	return tid, nil
}

// runSpawned is a thread's body: the spawned call, with panics contained
// like Run's.
func (m *VM) runSpawned(fn *bytecode.Function, args []Value) (err error) {
	defer containPanic(&err)
	return m.call(fn, args)
}

// join blocks until thread tid terminates, folds its stdout/output into
// the joining thread (the join is a deterministic program point, so the
// interleaving is defined), and propagates its failure: an uncaught MJ
// exception arrives as *Thrown and is catchable at the join site.
func (m *VM) join(f *frame, tid int) error {
	if m.group == nil {
		return m.fail(f, "join of unknown thread handle %d", tid)
	}
	th, msg := m.group.claim(tid)
	if th == nil {
		return m.fail(f, "%s", msg)
	}
	<-th.done
	if m.group.claimMerge(th) {
		m.Stdout = append(m.Stdout, th.vm.Stdout...)
		m.Output = append(m.Output, th.vm.Output...)
	}
	return th.err
}

// awaitThreads waits for every spawned thread (including ones spawned
// while waiting), then folds unjoined threads' outputs into this VM in
// thread-id order. The first unjoined failure (by tid) is returned.
// Joined threads were already folded at their join sites: a joiner is
// itself a thread, so by the time every thread is done, every claimed
// join has completed its merge — the sweep cannot steal one.
func (m *VM) awaitThreads() error {
	if m.group == nil {
		return nil
	}
	for {
		ths := m.group.all()
		for _, th := range ths {
			<-th.done
		}
		if len(m.group.all()) == len(ths) {
			break
		}
	}
	var firstErr error
	for _, th := range m.group.all() {
		if m.group.claimMerge(th) {
			m.Stdout = append(m.Stdout, th.vm.Stdout...)
			m.Output = append(m.Output, th.vm.Output...)
			if th.err != nil && firstErr == nil {
				firstErr = th.err
			}
		}
	}
	return firstErr
}

// TotalInstructions is the run's executed instruction count summed over
// the main thread and every finished spawned thread. Call after Run; for
// single-threaded programs it equals InstrCount.
func (m *VM) TotalInstructions() uint64 {
	if m.group == nil {
		return m.InstrCount
	}
	m.group.mu.Lock()
	defer m.group.mu.Unlock()
	return m.InstrCount + m.group.instrs
}

// TotalAllocs is AllocCount summed over all threads; see TotalInstructions.
func (m *VM) TotalAllocs() uint64 {
	if m.group == nil {
		return m.AllocCount
	}
	m.group.mu.Lock()
	defer m.group.mu.Unlock()
	return m.AllocCount + m.group.allocs
}

// ThreadCount reports how many threads the run spawned (all of them, not
// just live ones). Call after Run.
func (m *VM) ThreadCount() int {
	if m.group == nil {
		return 0
	}
	m.group.mu.Lock()
	defer m.group.mu.Unlock()
	return len(m.group.threads)
}

// siteTouch fires the first-touch notification for a path-counted access
// site, once per repetition segment — or repeatedly while the listener
// reports the site's input resolution as still pending (it then keeps
// seeing every access until one resolves).
func (m *VM) siteTouch(site int, e events.Entity) {
	if m.siteEpoch[site] != m.accessEpoch {
		if m.pl.SiteTouch(site, e) {
			m.siteEpoch[site] = m.accessEpoch
		}
	}
}

// flushPathLoop reports the nonzero path counters of one finished (or
// abandoned) counted-loop invocation and releases its arena block.
func (m *VM) flushPathLoop(ol *openLoop) {
	counts := m.pathArena[ol.base : ol.base+ol.npaths]
	if m.pl != nil {
		for pid, c := range counts {
			if c != 0 {
				m.pl.LoopPathCount(ol.id, pid, c)
			}
		}
	}
	m.pathArena = m.pathArena[:ol.base]
}

// stepLimit is the slow path of the per-instruction guard, taken when
// InstrCount reaches limit: the budget is exhausted, or a Watchdog poll is
// due. A poll arms the next one a full interval on, so polls fall at
// InstrCount 4096, 8193, 12290, ...; without a Watchdog the cadence still
// runs and the poll does nothing.
func (m *VM) stepLimit(f *frame, pc int) error {
	if m.InstrCount >= m.cfg.MaxSteps {
		return m.failAt(f, pc, "instruction budget exhausted (%d)", m.cfg.MaxSteps)
	}
	m.nextPoll = m.InstrCount + watchdogInterval + 1
	m.limit = min(m.cfg.MaxSteps, m.nextPoll)
	if m.cfg.Watchdog != nil {
		return m.cfg.Watchdog()
	}
	return nil
}

// constStr is the value the OpConstStr at fn's pc pushes, boxed once.
func (m *VM) constStr(fn *bytecode.Function, pc int) Value {
	tab := m.strConsts[fn.Method.ID]
	if tab == nil {
		tab = make([]Value, len(fn.Code))
		for i := range fn.Code {
			if in := &fn.Code[i]; in.Op == bytecode.OpConstStr {
				tab[i] = strVal(in.S)
			}
		}
		m.strConsts[fn.Method.ID] = tab
	}
	return tab[pc]
}

// catch delivers err to a handler of f when it is an MJ exception thrown
// out of the instruction before f.pc, reporting whether f continues.
func (m *VM) catch(f *frame, err error) bool {
	th, ok := err.(*Thrown)
	return ok && m.deliver(f, th, f.pc-1)
}

// interpret runs one frame to completion. On normal return, the returned
// value (if any) has been pushed to the caller's stack.
//
// The pc and the operand stack live in locals. They are written back to
// f only where other code reads them — calls, builtins, spawn, join,
// exception delivery and return — and reloaded after: a callee pushes its
// result onto f.stack, and a handler resets both. Calls and builtins take
// their arguments in place, as the slice of the operand stack just above
// its written-back top.
func (m *VM) interpret(f *frame) error {
	fn := f.fn
	code := fn.Code
	locals := f.locals
	stack := f.stack
	pc := f.pc
	sem := m.prog.Sem
	listener := m.cfg.Listener
	hook := m.cfg.InstrHook
	g := &m.gate
	journal := m.cfg.Journal
	var caller *frame
	if len(m.frames) >= 2 {
		caller = m.frames[len(m.frames)-2]
	}

	for {
		if uint(pc) >= uint(len(code)) {
			return m.failAt(f, pc, "pc out of range")
		}
		if m.InstrCount >= m.limit {
			if err := m.stepLimit(f, pc); err != nil {
				return err
			}
		}
		m.InstrCount++
		if hook != nil {
			hook(fn.Method.ID, pc)
		}
		in := &code[pc]
		pc++

		switch in.Op {
		case bytecode.OpConstInt:
			stack = append(stack, intVal(int64(in.A)))
		case bytecode.OpConstBool:
			stack = append(stack, boolVal(in.A != 0))
		case bytecode.OpConstStr:
			stack = append(stack, m.constStr(fn, pc-1))
		case bytecode.OpConstNull:
			stack = append(stack, nullVal)
		case bytecode.OpPop:
			stack = stack[:len(stack)-1]
		case bytecode.OpDup:
			stack = append(stack, stack[len(stack)-1])

		case bytecode.OpLoadLocal:
			stack = append(stack, locals[in.A])
		case bytecode.OpStoreLocal:
			n := len(stack) - 1
			locals[in.A] = stack[n]
			stack = stack[:n]

		case bytecode.OpNewObject:
			cls := sem.Classes[in.A]
			o := m.newObject(cls)
			if g.alloc[cls.ID] {
				listener.Alloc(o, cls.ID)
			}
			stack = append(stack, objVal(o))

		case bytecode.OpGetField:
			fld := sem.FieldByID(in.A)
			top := &stack[len(stack)-1]
			recv, ok := top.R.(*Object)
			if !ok {
				return m.failAt(f, pc, "null dereference reading %s", fld.QualifiedName())
			}
			if g.field[fld.ID] {
				if in.B != 0 && m.pl != nil {
					m.siteTouch(in.B-1, recv)
				} else {
					listener.FieldGet(recv, fld.ID)
				}
			}
			*top = recv.Fields[fld.Slot]

		case bytecode.OpPutField:
			fld := sem.FieldByID(in.A)
			n := len(stack) - 2
			val := stack[n+1]
			recv, ok := stack[n].R.(*Object)
			stack = stack[:n]
			if !ok {
				return m.failAt(f, pc, "null dereference writing %s", fld.QualifiedName())
			}
			recv.Fields[fld.Slot] = val
			if g.field[fld.ID] {
				if in.B != 0 && m.pl != nil {
					m.siteTouch(in.B-1, recv)
				} else {
					listener.FieldPut(recv, fld.ID, val.Entity())
				}
			}

		case bytecode.OpGetFieldDyn:
			top := &stack[len(stack)-1]
			recv, ok := top.R.(*Object)
			if !ok {
				return m.failAt(f, pc, "null or non-object dereference reading .%s", in.S)
			}
			fld := recv.Class.LookupField(in.S)
			if fld == nil {
				return m.failAt(f, pc, "class %s has no field %s", recv.Class.Name, in.S)
			}
			if g.field[fld.ID] {
				listener.FieldGet(recv, fld.ID)
			}
			*top = recv.Fields[fld.Slot]

		case bytecode.OpPutFieldDyn:
			n := len(stack) - 2
			val := stack[n+1]
			recv, ok := stack[n].R.(*Object)
			stack = stack[:n]
			if !ok {
				return m.failAt(f, pc, "null or non-object dereference writing .%s", in.S)
			}
			fld := recv.Class.LookupField(in.S)
			if fld == nil {
				return m.failAt(f, pc, "class %s has no field %s", recv.Class.Name, in.S)
			}
			recv.Fields[fld.Slot] = val
			if g.field[fld.ID] {
				listener.FieldPut(recv, fld.ID, val.Entity())
			}

		case bytecode.OpNewArray:
			t := m.prog.TypePool[in.A]
			top := &stack[len(stack)-1]
			if top.I < 0 {
				return m.failAt(f, pc, "negative array size %d", top.I)
			}
			*top = arrVal(m.newArray(t, int(top.I)))

		case bytecode.OpNewArrayMulti:
			t := m.prog.TypePool[in.A]
			dims := make([]int, in.B)
			for i := in.B - 1; i >= 0; i-- {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if v.I < 0 {
					return m.failAt(f, pc, "negative array size %d", v.I)
				}
				dims[i] = int(v.I)
			}
			stack = append(stack, arrVal(m.newArrayMulti(t, dims)))

		case bytecode.OpALoad:
			n := len(stack) - 2
			idx := stack[n+1].I
			arr, ok := stack[n].R.(*Array)
			if !ok {
				return m.failAt(f, pc, "null dereference indexing array")
			}
			if idx < 0 || idx >= int64(len(arr.Elems)) {
				return m.failAt(f, pc, "array index %d out of bounds (len %d)", idx, len(arr.Elems))
			}
			if g.arrays {
				if in.B != 0 && m.pl != nil {
					m.siteTouch(in.B-1, arr)
				} else {
					listener.ArrayLoad(arr)
				}
			}
			stack[n] = arr.Elems[idx]
			stack = stack[:n+1]

		case bytecode.OpAStore:
			n := len(stack) - 3
			val := stack[n+2]
			idx := stack[n+1].I
			arr, ok := stack[n].R.(*Array)
			stack = stack[:n]
			if !ok {
				return m.failAt(f, pc, "null dereference storing into array")
			}
			if idx < 0 || idx >= int64(len(arr.Elems)) {
				return m.failAt(f, pc, "array index %d out of bounds (len %d)", idx, len(arr.Elems))
			}
			arr.Elems[idx] = val
			if journal != nil {
				key, tgt := jrnlKey(val)
				journal.ArrayStoreAt(arr, int(idx), key, tgt)
			}
			if g.arrays {
				if in.B != 0 && m.pl != nil {
					m.siteTouch(in.B-1, arr)
				} else {
					listener.ArrayStore(arr, val.Entity())
				}
			}

		case bytecode.OpArrayLen:
			top := &stack[len(stack)-1]
			arr, ok := top.R.(*Array)
			if !ok {
				return m.failAt(f, pc, "null dereference reading array length")
			}
			*top = intVal(int64(len(arr.Elems)))

		case bytecode.OpStrLen:
			top := &stack[len(stack)-1]
			str, ok := top.R.(string)
			if !ok {
				return m.failAt(f, pc, "null dereference reading string length")
			}
			*top = intVal(int64(len(str)))

		case bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul, bytecode.OpDiv, bytecode.OpMod:
			n := len(stack) - 1
			a, b := stack[n-1].I, stack[n].I
			var r int64
			switch in.Op {
			case bytecode.OpAdd:
				r = a + b
			case bytecode.OpSub:
				r = a - b
			case bytecode.OpMul:
				r = a * b
			case bytecode.OpDiv:
				if b == 0 {
					return m.failAt(f, pc, "division by zero")
				}
				r = a / b
			case bytecode.OpMod:
				if b == 0 {
					return m.failAt(f, pc, "division by zero")
				}
				r = a % b
			}
			stack[n-1] = intVal(r)
			stack = stack[:n]

		case bytecode.OpNeg:
			top := &stack[len(stack)-1]
			*top = intVal(-top.I)

		case bytecode.OpConcat:
			n := len(stack) - 1
			stack[n-1] = strVal(stack[n-1].String() + stack[n].String())
			stack = stack[:n]

		case bytecode.OpNot:
			top := &stack[len(stack)-1]
			*top = boolVal(top.I == 0)

		case bytecode.OpCmpEq:
			n := len(stack) - 1
			stack[n-1] = boolVal(equal(stack[n-1], stack[n]))
			stack = stack[:n]
		case bytecode.OpCmpNe:
			n := len(stack) - 1
			stack[n-1] = boolVal(!equal(stack[n-1], stack[n]))
			stack = stack[:n]
		case bytecode.OpCmpLt:
			n := len(stack) - 1
			stack[n-1] = boolVal(stack[n-1].I < stack[n].I)
			stack = stack[:n]
		case bytecode.OpCmpGt:
			n := len(stack) - 1
			stack[n-1] = boolVal(stack[n-1].I > stack[n].I)
			stack = stack[:n]
		case bytecode.OpCmpLe:
			n := len(stack) - 1
			stack[n-1] = boolVal(stack[n-1].I <= stack[n].I)
			stack = stack[:n]
		case bytecode.OpCmpGe:
			n := len(stack) - 1
			stack[n-1] = boolVal(stack[n-1].I >= stack[n].I)
			stack = stack[:n]

		case bytecode.OpJmp:
			pc = in.A
		case bytecode.OpJmpIfFalse:
			n := len(stack) - 1
			if stack[n].I == 0 {
				pc = in.A
			}
			stack = stack[:n]
		case bytecode.OpJmpIfTrue:
			n := len(stack) - 1
			if stack[n].I != 0 {
				pc = in.A
			}
			stack = stack[:n]

		case bytecode.OpCallStatic:
			target := m.prog.FuncByID(in.A)
			base := len(stack) - len(target.Method.Params)
			f.pc, f.stack = pc, stack[:base]
			if err := m.call(target, stack[base:]); err != nil && !m.catch(f, err) {
				return err
			}
			pc, stack = f.pc, f.stack

		case bytecode.OpCallVirt:
			declared := sem.MethodByID(in.A)
			base := len(stack) - len(declared.Params) - 1
			recv, ok := stack[base].R.(*Object)
			if !ok {
				return m.failAt(f, pc, "null dereference calling %s", declared.QualifiedName())
			}
			target := m.resolveVirtual(recv, declared)
			f.pc, f.stack = pc, stack[:base]
			if err := m.call(target, stack[base:]); err != nil && !m.catch(f, err) {
				return err
			}
			pc, stack = f.pc, f.stack

		case bytecode.OpCallDyn:
			nargs := in.B
			base := len(stack) - nargs - 1
			recv, ok := stack[base].R.(*Object)
			if !ok {
				return m.failAt(f, pc, "null or non-object dereference calling .%s", in.S)
			}
			mth := m.lookupByName(recv.Class, in.S)
			if mth == nil {
				return m.failAt(f, pc, "class %s has no method %s", recv.Class.Name, in.S)
			}
			if len(mth.Params) != nargs {
				return m.failAt(f, pc, "dynamic call %s.%s: %d args, want %d",
					recv.Class.Name, in.S, nargs, len(mth.Params))
			}
			f.pc, f.stack = pc, stack[:base]
			if err := m.call(m.prog.FuncByID(mth.ID), stack[base:]); err != nil && !m.catch(f, err) {
				return err
			}
			pc, stack = f.pc, f.stack

		case bytecode.OpCallBuiltin:
			f.pc, f.stack = pc, stack
			if err := m.callBuiltin(f, types.Builtin(in.A), in.B); err != nil {
				return err
			}
			stack = f.stack

		case bytecode.OpSpawn:
			declared := sem.MethodByID(in.A)
			base := len(stack) - len(declared.Params)
			var target *bytecode.Function
			if in.B != 0 {
				base--
				recv, ok := stack[base].R.(*Object)
				if !ok {
					return m.failAt(f, pc, "null dereference spawning %s", declared.QualifiedName())
				}
				target = m.resolveVirtual(recv, declared)
			} else {
				target = m.prog.FuncByID(in.A)
			}
			// The thread reads its arguments on its own goroutine, after
			// this stack has moved on: copy them.
			args := slices.Clone(stack[base:])
			stack = stack[:base]
			f.pc = pc
			tid, err := m.spawn(f, target, args)
			if err != nil {
				return err
			}
			stack = append(stack, intVal(int64(tid)))

		case bytecode.OpJoin:
			n := len(stack) - 1
			tid := int(stack[n].I)
			f.pc, f.stack = pc, stack[:n]
			if err := m.join(f, tid); err != nil && !m.catch(f, err) {
				return err
			}
			pc, stack = f.pc, f.stack

		case bytecode.OpThrow:
			n := len(stack) - 1
			v := stack[n]
			obj, ok := v.R.(*Object)
			if !ok {
				return m.failAt(f, pc, "throw of non-object value %s", v)
			}
			th := &Thrown{Obj: obj}
			f.pc, f.stack = pc, stack[:n]
			if !m.deliver(f, th, pc-1) {
				return th
			}
			pc, stack = f.pc, f.stack

		case bytecode.OpRet:
			// Hand the stack back, so the frame pool keeps its capacity.
			f.stack = stack
			return nil

		case bytecode.OpRetVal:
			n := len(stack) - 1
			if caller != nil {
				caller.stack = append(caller.stack, stack[n])
			}
			f.stack = stack[:n]
			return nil

		case bytecode.OpMissingReturn:
			return m.failAt(f, pc, "method %s fell off the end without returning a value", fn.Name())

		case bytecode.OpLoopEnter:
			f.loopStack = append(f.loopStack, openLoop{id: in.A, base: -1})
			m.accessEpoch++
			if g.loops {
				listener.LoopEntry(in.A)
			}
		case bytecode.OpLoopBack:
			if g.loops {
				listener.LoopBack(in.A)
			}
		case bytecode.OpLoopExit:
			// Pop the matching loop; probes are inserted so exits match the
			// innermost active loop, but be robust to nested multi-exits.
			for i := len(f.loopStack) - 1; i >= 0; i-- {
				if f.loopStack[i].id == in.A {
					f.loopStack = append(f.loopStack[:i], f.loopStack[i+1:]...)
					break
				}
			}
			m.accessEpoch++
			if g.loops {
				listener.LoopExit(in.A)
			}

		case bytecode.OpPathEnter:
			base := len(m.pathArena)
			for i := 0; i < in.B; i++ {
				m.pathArena = append(m.pathArena, 0)
			}
			f.loopStack = append(f.loopStack, openLoop{id: in.A, base: base, npaths: in.B, saved: f.pathReg})
			f.pathReg = 0
			m.accessEpoch++
			if g.loops {
				listener.LoopEntry(in.A)
			}

		case bytecode.OpPathExit:
			n := len(f.loopStack)
			if n == 0 || f.loopStack[n-1].id != in.A || f.loopStack[n-1].base < 0 {
				return m.failAt(f, pc, "path.exit %d without matching path.enter", in.A)
			}
			ol := f.loopStack[n-1]
			idx := ol.base + f.pathReg + in.B
			if idx < ol.base || idx >= ol.base+ol.npaths {
				return m.failAt(f, pc, "path.exit %d: path id %d out of range [0,%d)", in.A, f.pathReg+in.B, ol.npaths)
			}
			m.pathArena[idx]++
			f.loopStack = f.loopStack[:n-1]
			m.flushPathLoop(&ol)
			f.pathReg = ol.saved
			m.accessEpoch++
			if g.loops {
				listener.LoopExit(in.A)
			}

		case bytecode.OpPathBump:
			// One finished iteration: count the path, restart at the header.
			n := len(f.loopStack)
			if n == 0 || f.loopStack[n-1].base < 0 {
				return m.failAt(f, pc, "path.bump outside a counted loop")
			}
			ol := &f.loopStack[n-1]
			idx := ol.base + f.pathReg + in.B
			if idx < ol.base || idx >= ol.base+ol.npaths {
				return m.failAt(f, pc, "path.bump: path id %d out of range [0,%d)", f.pathReg+in.B, ol.npaths)
			}
			m.pathArena[idx]++
			f.pathReg = 0
			pc = in.A

		case bytecode.OpPathInc:
			f.pathReg += in.A

		case bytecode.OpJmpTruePath:
			n := len(stack) - 1
			if stack[n].I != 0 {
				f.pathReg += in.B
				pc = in.A
			}
			stack = stack[:n]
		case bytecode.OpJmpFalsePath:
			n := len(stack) - 1
			if stack[n].I == 0 {
				f.pathReg += in.B
				pc = in.A
			}
			stack = stack[:n]

		default:
			return m.failAt(f, pc, "unknown opcode %s", in.Op)
		}
	}
}

// deliver transfers control to the innermost exception handler of f that
// covers atPC and matches the thrown object's class, unwinding active
// loops abandoned by the jump (emitting LoopExit events). It reports
// whether a handler was found.
func (m *VM) deliver(f *frame, th *Thrown, atPC int) bool {
	for _, h := range f.fn.Handlers {
		if atPC < h.From || atPC >= h.To {
			continue
		}
		hcls := m.prog.Sem.Classes[h.ClassID]
		if !th.Obj.Class.IsSubclassOf(hcls) {
			continue
		}
		// Pop loops the unwind abandons: everything above the handler's
		// static loop scope. Abandoned counted loops flush their counters
		// (the partial in-flight path is dropped) and restore the path
		// register they saved.
		for len(f.loopStack) > 0 && !slices.Contains(h.LoopScope, f.loopStack[len(f.loopStack)-1].id) {
			ol := f.loopStack[len(f.loopStack)-1]
			f.loopStack = f.loopStack[:len(f.loopStack)-1]
			if ol.base >= 0 {
				m.flushPathLoop(&ol)
				f.pathReg = ol.saved
			}
			m.accessEpoch++
			if m.cfg.Listener != nil {
				m.cfg.Listener.LoopExit(ol.id)
			}
		}
		f.stack = f.stack[:0]
		f.locals[h.Slot] = objVal(th.Obj)
		f.pc = h.Target
		return true
	}
	return false
}

func (m *VM) newArrayMulti(t *types.Type, dims []int) *Array {
	a := m.newArray(t, dims[0])
	if len(dims) > 1 {
		for i := range a.Elems {
			sub := m.newArrayMulti(t.Elem, dims[1:])
			a.Elems[i] = arrVal(sub)
			if m.cfg.Journal != nil {
				m.cfg.Journal.ArrayStoreAt(a, i, nil, sub)
			}
		}
	}
	return a
}

// jrnlKey maps a stored value to its journal element key and target entity:
// primitives carry their numeric value, strings their content, references
// the stored entity, and null neither.
func jrnlKey(v Value) (events.ElemKey, events.Entity) {
	switch v.K {
	case ValInt, ValBool:
		return v.I, nil
	case ValStr:
		return v.R, nil
	}
	return nil, v.Entity()
}

func (m *VM) lookupByName(cls *types.Class, name string) *types.Method {
	key := nmKey{classID: cls.ID, name: name}
	if mth, ok := m.byName[key]; ok {
		return mth
	}
	mth := cls.LookupMethod(name)
	m.byName[key] = mth
	return mth
}

// callBuiltin runs builtin b on the top nargs operands of f's stack,
// which the interpreter has written back, and pushes its result there.
func (m *VM) callBuiltin(f *frame, b types.Builtin, nargs int) error {
	base := len(f.stack) - nargs
	args := f.stack[base:]
	f.stack = f.stack[:base]
	listener := m.cfg.Listener
	switch b {
	case types.BuiltinRand:
		f.stack = append(f.stack, intVal(m.rand(args[0].I)))
	case types.BuiltinReadInput:
		var v int64
		if m.inPos < len(m.cfg.Input) {
			v = m.cfg.Input[m.inPos]
			m.inPos++
		}
		if m.gate.io {
			listener.InputRead()
		}
		f.stack = append(f.stack, intVal(v))
	case types.BuiltinWriteOutput:
		m.Output = append(m.Output, args[0])
		if m.gate.io {
			listener.OutputWrite()
		}
	case types.BuiltinPrint:
		m.Stdout = append(m.Stdout, args[0].String())
	case types.BuiltinCheck:
		if args[0].I == 0 {
			return m.fail(f, "check failed")
		}
	default:
		return m.fail(f, "unknown builtin %d", int(b))
	}
	return nil
}

// StdoutText returns everything print()ed, newline-joined.
func (m *VM) StdoutText() string { return strings.Join(m.Stdout, "\n") }

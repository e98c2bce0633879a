// Package faultinject provides seeded, deterministic fault injection for
// the profiling pipeline, plus the typed error taxonomy the rest of the
// system classifies failures against.
//
// A Plan is a seeded fault schedule. Code under test threads named
// injection points through its I/O and scheduling seams ("fs.rename",
// "fs.bitflip", "vm.watchdog", ...); each armed point draws from its own
// deterministic PRNG stream — seeded by the plan seed and the point name,
// independent of call interleaving across points — so the same seed
// reproduces the same fault schedule, operation for operation. Unarmed
// points cost one nil check.
//
// The taxonomy divides faults into three classes a caller can act on:
//
//   - Transient: retryable I/O (interrupted writes, spurious EAGAIN-style
//     failures). A bounded retry-with-backoff (RetryPolicy) is expected
//     to clear it.
//   - Corruption: damaged bytes — CRC mismatches, torn frames, garbage
//     manifests. Never retried; surfaced so a damaged artifact is flagged
//     instead of silently yielding a plausible-but-wrong profile.
//   - Resource: exhausted resources (ENOSPC, EMFILE, ...). Not retryable
//     on the spot; the operation fails with a typed error.
//
// ClassOf classifies any error chain: *Fault errors carry their class,
// other error types may implement Classifier, and well-known errno values
// map to Transient or Resource.
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"syscall"
)

// FaultClass partitions failures by how a caller should react.
type FaultClass uint8

// Fault classes. Unknown marks an unclassified error — a bug, a panic, or
// an error the taxonomy does not cover; robustness harnesses treat it as a
// failure, never as an acceptable outcome.
const (
	Unknown FaultClass = iota
	// Transient is retryable I/O; bounded retry-with-backoff should clear it.
	Transient
	// Corruption is damaged bytes: CRC mismatches, torn frames, garbage
	// manifests. Never retried.
	Corruption
	// Resource is an exhausted resource: ENOSPC, EMFILE, quota, limits.
	Resource
)

// String implements fmt.Stringer.
func (c FaultClass) String() string {
	switch c {
	case Transient:
		return "transient"
	case Corruption:
		return "corruption"
	case Resource:
		return "resource"
	}
	return "unknown"
}

// ParseClass maps a class name, as String prints it, back to the class.
// Any other name, including "", is Unknown.
func ParseClass(name string) FaultClass {
	for c := Transient; c <= Resource; c++ {
		if c.String() == name {
			return c
		}
	}
	return Unknown
}

// Fault is one injected (or injected-style) failure: its class, the
// injection point that raised it, and the underlying cause when the fault
// models a specific errno.
type Fault struct {
	// Class is the fault's taxonomy class.
	Class FaultClass
	// Point names the injection point that fired.
	Point string
	// Op describes the failed operation ("rename /x -> /y").
	Op string
	// Err is the modelled cause (syscall.ENOSPC, io.ErrShortWrite, ...);
	// may be nil for a generic fault of the class.
	Err error
}

// Error implements error.
func (f *Fault) Error() string {
	s := fmt.Sprintf("faultinject: %s fault at %s", f.Class, f.Point)
	if f.Op != "" {
		s += ": " + f.Op
	}
	if f.Err != nil {
		s += ": " + f.Err.Error()
	}
	return s
}

// Unwrap exposes the modelled cause to errors.Is/As.
func (f *Fault) Unwrap() error { return f.Err }

// FaultClass implements Classifier.
func (f *Fault) FaultClass() FaultClass { return f.Class }

// Classifier is implemented by error types that know their own fault
// class (e.g. the trace decoder's corruption errors).
type Classifier interface {
	FaultClass() FaultClass
}

// ClassOf classifies an error chain: the first Classifier in the chain
// wins, then well-known errno values, then Unknown.
func ClassOf(err error) FaultClass {
	if err == nil {
		return Unknown
	}
	var c Classifier
	if errors.As(err, &c) {
		return c.FaultClass()
	}
	for _, e := range []error{syscall.ENOSPC, syscall.EMFILE, syscall.ENFILE, syscall.EDQUOT, syscall.ENOMEM} {
		if errors.Is(err, e) {
			return Resource
		}
	}
	if errors.Is(err, io.ErrShortWrite) || errors.Is(err, syscall.EINTR) || errors.Is(err, syscall.EAGAIN) {
		return Transient
	}
	return Unknown
}

// ---------------------------------------------------------------------------
// Seeded schedules

// Plan is one seeded fault schedule: a set of armed injection points, each
// with its own deterministic draw stream. The zero of *Plan (nil) arms
// nothing and injects nothing, so production code can thread a plan
// unconditionally.
type Plan struct {
	seed   uint64
	mu     sync.Mutex
	points map[string]*Point
}

// NewPlan creates an empty schedule for the given seed. Arm points to
// make it inject anything.
func NewPlan(seed uint64) *Plan {
	return &Plan{seed: seed, points: map[string]*Point{}}
}

// Seed returns the plan's seed.
func (p *Plan) Seed() uint64 {
	if p == nil {
		return 0
	}
	return p.seed
}

// PointConfig arms one injection point.
type PointConfig struct {
	// Prob is the per-operation fire probability in [0, 1].
	Prob float64
	// MaxFires bounds how many times the point fires (0 = unlimited).
	MaxFires int
	// Class is the taxonomy class of the faults this point raises.
	Class FaultClass
	// Errno is the modelled cause attached to raised faults (e.g.
	// syscall.ENOSPC for a Resource point); may be nil.
	Errno error
	// PathSuffix, when non-empty, restricts a filesystem point to paths
	// with this suffix (e.g. "trace.bin"); non-matching operations draw
	// nothing, so the schedule for matching paths is independent of
	// unrelated traffic.
	PathSuffix string
}

// Arm registers (or replaces) the named injection point.
func (p *Plan) Arm(name string, cfg PointConfig) *Point {
	p.mu.Lock()
	defer p.mu.Unlock()
	pt := &Point{name: name, cfg: cfg, rng: splitmix64(p.seed ^ fnv64(name))}
	p.points[name] = pt
	return pt
}

// Point returns the named point, or nil when unarmed. All Point methods
// are nil-safe, so call sites never check.
func (p *Plan) Point(name string) *Point {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.points[name]
}

// Point is one armed injection point. Its draw stream depends only on the
// plan seed, the point name, and how many (matching) operations it has
// seen — not on wall clock or goroutine interleaving across points.
type Point struct {
	name string
	cfg  PointConfig

	mu    sync.Mutex
	rng   uint64
	ops   int
	fires int
}

// next draws the next value of the point's PRNG stream.
func (pt *Point) next() uint64 {
	pt.rng += 0x9e3779b97f4a7c15
	z := pt.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// splitmix64 scrambles a seed into the stream's initial state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv64 hashes a point name (FNV-1a).
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Fire reports whether the point's next operation faults. Nil-safe: an
// unarmed (nil) point never fires.
func (pt *Point) Fire() bool { return pt.FireFor("") }

// FireFor is Fire for filesystem points: when the point is path-filtered,
// only operations on matching paths draw (and can fire).
func (pt *Point) FireFor(path string) bool {
	if pt == nil {
		return false
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.cfg.PathSuffix != "" && !hasSuffix(path, pt.cfg.PathSuffix) {
		return false
	}
	pt.ops++
	if pt.cfg.MaxFires > 0 && pt.fires >= pt.cfg.MaxFires {
		return false
	}
	// Compare a 53-bit draw against the probability; float64 holds 53 bits
	// exactly, so the comparison is deterministic across platforms.
	draw := float64(pt.next()>>11) / float64(1<<53)
	if draw >= pt.cfg.Prob {
		return false
	}
	pt.fires++
	return true
}

func hasSuffix(s, suffix string) bool {
	return len(s) >= len(suffix) && s[len(s)-len(suffix):] == suffix
}

// Err returns a *Fault for op when the point fires, nil otherwise.
func (pt *Point) Err(op string) error { return pt.ErrFor("", op) }

// ErrFor is Err with a path for path-filtered points.
func (pt *Point) ErrFor(path, op string) error {
	if !pt.FireFor(path) {
		return nil
	}
	return pt.fault(op)
}

// fault builds the point's fault error.
func (pt *Point) fault(op string) *Fault {
	return &Fault{Class: pt.cfg.Class, Point: pt.name, Op: op, Err: pt.cfg.Errno}
}

// Pick draws a deterministic index in [0, n). Used to place corruption
// (which byte, which bit) reproducibly. Nil-safe (returns 0).
func (pt *Point) Pick(n int) int {
	if pt == nil || n <= 0 {
		return 0
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return int(pt.next() % uint64(n))
}

// Ops returns how many (matching) operations the point has seen.
func (pt *Point) Ops() int {
	if pt == nil {
		return 0
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.ops
}

// Fires returns how many times the point has fired.
func (pt *Point) Fires() int {
	if pt == nil {
		return 0
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.fires
}

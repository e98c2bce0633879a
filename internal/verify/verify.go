// Package verify is the profiling pipeline's online invariant checker. A
// Checker attaches to an events/pipeline Transport as one more consumer (a
// raw record tap, so it observes every record the producer emitted —
// including heap-journal records — unfiltered) and validates stream
// well-formedness while the profiled program runs: balanced entry/exit
// events, monotonic clocks, back edges and exits only for loops that are
// open in the current frame, and journal consistency (no duplicate
// allocations, stores only into known entities and in-bounds slots).
//
// After the run, CheckTree validates the repetition tree the core profiler
// built (invocation accounting, cost conservation between per-invocation
// history and exact node totals — even under sampling degradation), and
// AgreeStream cross-checks the tree against the stream tallies the Checker
// accumulated: every loop entrance the stream carried must be a started
// invocation of exactly one loop node, and every back edge one recorded
// step. A profile that passes is structurally incapable of the failure
// mode the paper's pitch rules out — a damaged stream silently fitted into
// a plausible-but-wrong cost function.
//
// Violations classify as faultinject.Corruption: wrong-shaped data, never
// retryable.
package verify

import (
	"fmt"

	"algoprof/internal/events"
	"algoprof/internal/events/pipeline"
	"algoprof/internal/faultinject"
)

// Violation is one failed invariant.
type Violation struct {
	// Seq is the record ordinal at which the stream checker caught the
	// violation (-1 for post-run tree checks).
	Seq int64
	// Rule names the invariant ("balanced-exits", "clock-monotonic", ...).
	Rule string
	// Msg describes the failure.
	Msg string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	if v.Seq >= 0 {
		return fmt.Sprintf("[%s] record %d: %s", v.Rule, v.Seq, v.Msg)
	}
	return fmt.Sprintf("[%s] %s", v.Rule, v.Msg)
}

// Error reports one or more failed invariants. It classifies as
// faultinject.Corruption.
type Error struct {
	// Violations holds the retained violations (capped; Total counts all).
	Violations []Violation
	// Total counts every violation, including ones dropped by the cap.
	Total int
}

// Error implements error.
func (e *Error) Error() string {
	if len(e.Violations) == 0 {
		return "verify: invariant violations"
	}
	s := fmt.Sprintf("verify: %d invariant violation(s), first: %s", e.Total, e.Violations[0])
	return s
}

// FaultClass implements faultinject.Classifier.
func (e *Error) FaultClass() faultinject.FaultClass { return faultinject.Corruption }

// maxViolations bounds retained violations; a badly damaged stream fails
// every record and must not turn the checker into the memory hog.
const maxViolations = 64

// vframe mirrors one VM method frame: the method id and the loop ids
// currently open inside it. The VM removes an exiting loop from anywhere
// in the frame's open set (break/continue jump over inner exits), so the
// checker does too; only an exit for a loop not open in the CURRENT frame
// is a violation.
type vframe struct {
	method int
	loops  []int
}

// Checker validates the event stream online. It implements
// pipeline.RecordTap (the transport routes every raw record to it) and
// events.Listener (as a no-op, so Transport.Add accepts it). Not
// goroutine-safe; the transport delivers records inline on the producing
// goroutine, matching every other consumer's contract.
type Checker struct {
	events.NopListener

	seq       int64
	prevClock uint64

	// frames[0] is the synthetic program frame (method -1): loops outside
	// any traced method nest there.
	frames []vframe

	loopEntries   map[int]int64
	loopBacks     map[int]int64
	loopExits     map[int]int64
	methodEntries map[int]int64
	methodExits   map[int]int64
	instrRecords  int64

	// entities maps journaled entity ids to their declared capacity.
	entities map[int64]int

	violations []Violation
	total      int
	finished   bool
}

// NewChecker returns a Checker ready to consume a stream.
func NewChecker() *Checker {
	return &Checker{
		frames:        []vframe{{method: -1}},
		loopEntries:   map[int]int64{},
		loopBacks:     map[int]int64{},
		loopExits:     map[int]int64{},
		methodEntries: map[int]int64{},
		methodExits:   map[int]int64{},
		entities:      map[int64]int{},
	}
}

func (c *Checker) violate(seq int64, rule, format string, args ...any) {
	c.total++
	if len(c.violations) < maxViolations {
		c.violations = append(c.violations, Violation{Seq: seq, Rule: rule, Msg: fmt.Sprintf(format, args...)})
	}
}

// top returns the innermost frame.
func (c *Checker) top() *vframe { return &c.frames[len(c.frames)-1] }

// Record implements pipeline.RecordTap.
func (c *Checker) Record(r *pipeline.Record) {
	seq := c.seq
	c.seq++
	if r.Clock < c.prevClock {
		c.violate(seq, "clock-monotonic", "clock %d after %d (op %d)", r.Clock, c.prevClock, r.Op)
	} else {
		c.prevClock = r.Clock
	}
	switch r.Op {
	case pipeline.OpLoopEntry:
		id := int(r.ID)
		c.loopEntries[id]++
		f := c.top()
		f.loops = append(f.loops, id)
	case pipeline.OpLoopBack:
		id := int(r.ID)
		c.loopBacks[id]++
		if !contains(c.top().loops, id) {
			c.violate(seq, "loop-back-open", "back edge for loop %d not open in current frame", id)
		}
	case pipeline.OpLoopExit:
		id := int(r.ID)
		c.loopExits[id]++
		f := c.top()
		if !remove(&f.loops, id) {
			c.violate(seq, "loop-exit-open", "exit for loop %d not open in current frame", id)
		}
	case pipeline.OpMethodEntry:
		c.methodEntries[int(r.ID)]++
		c.frames = append(c.frames, vframe{method: int(r.ID)})
	case pipeline.OpMethodExit:
		id := int(r.ID)
		c.methodExits[id]++
		if len(c.frames) == 1 {
			c.violate(seq, "method-balanced", "exit for method %d with no frame open", id)
			break
		}
		f := c.top()
		if f.method != id {
			c.violate(seq, "method-balanced", "exit for method %d while in method %d", id, f.method)
		}
		if len(f.loops) > 0 {
			c.violate(seq, "loop-balanced", "method %d exits with %d loop(s) still open", id, len(f.loops))
		}
		c.frames = c.frames[:len(c.frames)-1]
	case pipeline.OpInstr:
		c.instrRecords++
	case pipeline.OpJrnlAlloc:
		if _, dup := c.entities[r.Ent]; dup {
			c.violate(seq, "journal-alloc", "entity %d allocated twice", r.Ent)
		}
		if r.Aux < 0 {
			c.violate(seq, "journal-alloc", "entity %d with negative capacity %d", r.Ent, r.Aux)
		}
		c.entities[r.Ent] = int(r.Aux)
	case pipeline.OpJrnlStore:
		capa, ok := c.entities[r.Ent]
		if !ok {
			c.violate(seq, "journal-store", "store into unknown entity %d", r.Ent)
			break
		}
		if int(r.ID) < 0 || int(r.ID) >= capa {
			c.violate(seq, "journal-store", "store slot %d out of bounds for entity %d (capacity %d)", r.ID, r.Ent, capa)
		}
	}
}

func contains(s []int, id int) bool {
	for _, v := range s {
		if v == id {
			return true
		}
	}
	return false
}

// remove deletes one occurrence of id from *s (innermost first) and
// reports whether it was present.
func remove(s *[]int, id int) bool {
	v := *s
	for i := len(v) - 1; i >= 0; i-- {
		if v[i] == id {
			*s = append(v[:i], v[i+1:]...)
			return true
		}
	}
	return false
}

// Finish runs the end-of-stream checks. openOK tolerates unclosed frames
// and loops — the footprint of a truncated trace, where the stream is a
// legitimate prefix; on a complete stream every entry must have its exit.
// Call once, after the last record has been delivered.
func (c *Checker) Finish(openOK bool) {
	if c.finished {
		return
	}
	c.finished = true
	if openOK {
		return
	}
	if n := len(c.frames) - 1; n > 0 {
		c.violate(-1, "method-balanced", "%d method frame(s) still open at end of stream", n)
	}
	if n := len(c.frames[0].loops); n > 0 {
		c.violate(-1, "loop-balanced", "%d loop(s) still open at end of stream", n)
	}
	for id, n := range c.loopEntries {
		if x := c.loopExits[id]; x != n {
			c.violate(-1, "balanced-exits", "loop %d: %d entries, %d exits", id, n, x)
		}
	}
	for id, x := range c.loopExits {
		if _, ok := c.loopEntries[id]; !ok {
			c.violate(-1, "balanced-exits", "loop %d: %d exits, 0 entries", id, x)
		}
	}
	for id, n := range c.methodEntries {
		if x := c.methodExits[id]; x != n {
			c.violate(-1, "balanced-exits", "method %d: %d entries, %d exits", id, n, x)
		}
	}
	for id, x := range c.methodExits {
		if _, ok := c.methodEntries[id]; !ok {
			c.violate(-1, "balanced-exits", "method %d: %d exits, 0 entries", id, x)
		}
	}
}

// Records returns the number of records checked.
func (c *Checker) Records() int64 { return c.seq }

// InstrRecords returns the number of per-instruction tick records seen.
func (c *Checker) InstrRecords() int64 { return c.instrRecords }

// MethodEntries returns a copy of the per-method entry tallies.
func (c *Checker) MethodEntries() map[int]int64 {
	out := make(map[int]int64, len(c.methodEntries))
	for k, v := range c.methodEntries {
		out[k] = v
	}
	return out
}

// Violations returns the retained violations.
func (c *Checker) Violations() []Violation {
	return append([]Violation(nil), c.violations...)
}

// Add records externally detected violations (tree checks, backend
// comparisons) so one Checker accumulates the run's full verdict.
func (c *Checker) Add(vs []Violation) {
	for _, v := range vs {
		c.total++
		if len(c.violations) < maxViolations {
			c.violations = append(c.violations, v)
		}
	}
}

// Err returns nil when every invariant held, else a *Error.
func (c *Checker) Err() error {
	if c.total == 0 {
		return nil
	}
	return &Error{Violations: c.Violations(), Total: c.total}
}

var _ pipeline.RecordTap = (*Checker)(nil)
var _ events.Listener = (*Checker)(nil)

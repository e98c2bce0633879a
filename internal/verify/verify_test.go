package verify

import (
	"errors"
	"reflect"
	"testing"

	"algoprof/internal/events/pipeline"
	"algoprof/internal/faultinject"
)

// Record builders for the minimal streams below.
func entry(m int32) pipeline.Record    { return pipeline.Record{Op: pipeline.OpMethodEntry, ID: m} }
func exit(m int32) pipeline.Record     { return pipeline.Record{Op: pipeline.OpMethodExit, ID: m} }
func loopIn(l int32) pipeline.Record   { return pipeline.Record{Op: pipeline.OpLoopEntry, ID: l} }
func loopBack(l int32) pipeline.Record { return pipeline.Record{Op: pipeline.OpLoopBack, ID: l} }
func loopOut(l int32) pipeline.Record  { return pipeline.Record{Op: pipeline.OpLoopExit, ID: l} }
func alloc(ent, capacity int64) pipeline.Record {
	return pipeline.Record{Op: pipeline.OpJrnlAlloc, Ent: ent, Aux: capacity}
}
func store(ent int64, slot int32) pipeline.Record {
	return pipeline.Record{Op: pipeline.OpJrnlStore, Ent: ent, ID: slot}
}

// check feeds recs to a fresh Checker, optionally runs the end-of-stream
// checks, and returns the checker.
func check(recs []pipeline.Record, finish, openOK bool) *Checker {
	c := NewChecker()
	for i := range recs {
		c.Record(&recs[i])
	}
	if finish {
		c.Finish(openOK)
	}
	return c
}

func rules(c *Checker) []string {
	var out []string
	for _, v := range c.Violations() {
		out = append(out, v.Rule)
	}
	return out
}

// TestCheckerRules feeds one minimal broken stream per rule. Stream rules
// fire as records arrive; the end-of-stream cases also run Finish. A
// stream can only leave a frame or loop open by also unbalancing its
// per-id entry and exit counts, so those cases report balanced-exits too,
// and balanced-exits is never reported alone.
func TestCheckerRules(t *testing.T) {
	clocked := func(r pipeline.Record, clock uint64) pipeline.Record { r.Clock = clock; return r }
	for _, tc := range []struct {
		name   string
		recs   []pipeline.Record
		finish bool
		want   []string
	}{
		{"clock goes backwards", []pipeline.Record{clocked(entry(1), 5), clocked(exit(1), 3)}, true,
			[]string{"clock-monotonic"}},
		{"back edge of a loop not open", []pipeline.Record{loopBack(7)}, true,
			[]string{"loop-back-open"}},
		{"exit of a loop open only in the caller", []pipeline.Record{loopIn(7), entry(1), loopOut(7), exit(1)}, false,
			[]string{"loop-exit-open"}},
		{"method exit with no frame open", []pipeline.Record{exit(1)}, false,
			[]string{"method-balanced"}},
		{"exit for the wrong method", []pipeline.Record{entry(1), exit(2)}, false,
			[]string{"method-balanced"}},
		{"frames still open at the end", []pipeline.Record{entry(1)}, true,
			[]string{"method-balanced", "balanced-exits"}},
		{"method exits with a loop open", []pipeline.Record{entry(1), loopIn(7), exit(1)}, false,
			[]string{"loop-balanced"}},
		{"loop still open at the end", []pipeline.Record{loopIn(7)}, true,
			[]string{"loop-balanced", "balanced-exits"}},
		{"entry and exit counts disagree", []pipeline.Record{entry(1), loopIn(7), exit(1)}, true,
			[]string{"loop-balanced", "balanced-exits"}},
		{"entity allocated twice", []pipeline.Record{alloc(1, 2), alloc(1, 2)}, true,
			[]string{"journal-alloc"}},
		{"negative capacity", []pipeline.Record{alloc(1, -1)}, true,
			[]string{"journal-alloc"}},
		{"store into an unknown entity", []pipeline.Record{store(9, 0)}, true,
			[]string{"journal-store"}},
		{"store slot out of bounds", []pipeline.Record{alloc(1, 2), store(1, 2)}, true,
			[]string{"journal-store"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := check(tc.recs, tc.finish, false)
			if got := rules(c); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("rules = %q, want %q\nviolations: %v", got, tc.want, c.Violations())
			}
		})
	}
}

// TestCheckerWellFormedStream: a balanced stream with monotonic clocks and
// a consistent heap journal passes every check.
func TestCheckerWellFormedStream(t *testing.T) {
	recs := []pipeline.Record{
		alloc(1, 4), entry(1), loopIn(7), loopBack(7), store(1, 3),
		entry(2), loopIn(8), loopOut(8), exit(2), loopBack(7), loopOut(7), exit(1),
		{Op: pipeline.OpInstr},
	}
	for i := range recs {
		recs[i].Clock = uint64(i / 2)
	}
	c := check(recs, true, false)
	if err := c.Err(); err != nil {
		t.Fatalf("well-formed stream: %v", err)
	}
	if c.Records() != int64(len(recs)) || c.InstrRecords() != 1 {
		t.Errorf("Records = %d, InstrRecords = %d; want %d and 1", c.Records(), c.InstrRecords(), len(recs))
	}
}

// TestFinishOpenOKSuppressesOnlyEndOfStream: a truncated stream may leave
// frames and loops open, but the rules checked as records arrive still
// apply.
func TestFinishOpenOKSuppressesOnlyEndOfStream(t *testing.T) {
	recs := []pipeline.Record{entry(1), loopIn(7), loopBack(8)}
	if got := rules(check(recs, true, true)); !reflect.DeepEqual(got, []string{"loop-back-open"}) {
		t.Errorf("Finish(true) rules = %q, want only the stream rule", got)
	}
	want := []string{"loop-back-open", "method-balanced", "balanced-exits", "balanced-exits"}
	if got := rules(check(recs, true, false)); !reflect.DeepEqual(got, want) {
		t.Errorf("Finish(false) rules = %q, want %q", got, want)
	}
}

// TestViolationCap: a badly damaged stream keeps the first 64 violations
// but counts all of them.
func TestViolationCap(t *testing.T) {
	recs := make([]pipeline.Record, 100)
	for i := range recs {
		recs[i] = loopBack(7)
	}
	err := check(recs, true, false).Err()
	var verr *Error
	if !errors.As(err, &verr) {
		t.Fatalf("Err() = %T %v, want *verify.Error", err, err)
	}
	if len(verr.Violations) != 64 || verr.Total != 100 {
		t.Errorf("kept %d violations, Total %d; want 64 and 100", len(verr.Violations), verr.Total)
	}
	if verr.Violations[63].Seq != 63 {
		t.Errorf("last kept violation is record %d, want 63", verr.Violations[63].Seq)
	}
}

// TestErrorIsCorruption: a verifier failure classifies as corruption, so
// retry policies never re-run it.
func TestErrorIsCorruption(t *testing.T) {
	err := check([]pipeline.Record{exit(1)}, true, false).Err()
	if _, ok := err.(*Error); !ok {
		t.Fatalf("Err() = %T, want *verify.Error", err)
	}
	if c := faultinject.ClassOf(err); c != faultinject.Corruption {
		t.Errorf("ClassOf = %v, want corruption", c)
	}
}

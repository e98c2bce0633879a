package service

import (
	"strings"
	"testing"
)

// TestOutcomesCheck holds the one gate loadgen and the distributed
// benchmark share to each of its rules: a clean tally passes, and each
// case breaks exactly one rule and gets exactly that violation.
func TestOutcomesCheck(t *testing.T) {
	clean := func() *Outcomes {
		o := &Outcomes{Jobs: 3}
		o.Add(StatusOK, "", "")
		o.Add(StatusDegraded, "", "")
		o.Add(StatusFailed, "quota", "resource")
		return o
	}
	if bad := clean().Check(); len(bad) != 0 {
		t.Fatalf("clean tally: %v", bad)
	}
	cases := []struct {
		name      string
		breakRule func(o *Outcomes)
		want      string
	}{
		{"non-terminal status", func(o *Outcomes) { o.Jobs++; o.Add(StatusRunning, "", "") }, "1 jobs lost"},
		{"failure without a kind", func(o *Outcomes) { o.Jobs++; o.Add(StatusFailed, "", "transient") }, "1 failed jobs without"},
		{"failure without a class", func(o *Outcomes) { o.Jobs++; o.Add(StatusFailed, "internal", "") }, "1 failed jobs without"},
		{"failure classed unknown", func(o *Outcomes) { o.Jobs++; o.Add(StatusFailed, "internal", "unknown") }, "1 failed jobs without"},
		{"failure with an unparsed class", func(o *Outcomes) { o.Jobs++; o.Add(StatusFailed, "internal", "bogus") }, "1 failed jobs without"},
		{"a job never counted", func(o *Outcomes) { o.Jobs++ }, "status counts sum to 3, want 4"},
		{"degraded but none ok", func(o *Outcomes) { o.OK--; o.Degraded++ }, "no job succeeded"},
	}
	for _, tc := range cases {
		o := clean()
		tc.breakRule(o)
		bad := o.Check()
		if len(bad) != 1 || !strings.Contains(bad[0], tc.want) {
			t.Errorf("%s: violations %q, want one containing %q", tc.name, bad, tc.want)
		}
	}
}

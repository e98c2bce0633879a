package service

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
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

// TestRunLoadCancelled: a cancelled load run stops submitting, counts the
// jobs it never finished as lost, and logs nothing after RunLoad returns.
// The progress log ticks every 2 s, so the test waits out one tick.
func TestRunLoadCancelled(t *testing.T) {
	t.Parallel()
	_, srv := newHTTPService(t, Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var (
		mu       sync.Mutex
		returned bool
		late     []string
	)
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if returned {
			late = append(late, fmt.Sprintf(format, args...))
		}
	}
	rep, err := RunLoad(ctx, LoadConfig{Addr: srv.URL, Jobs: 200, Concurrency: 2, Logf: logf})
	mu.Lock()
	returned = true
	mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost != rep.Jobs {
		t.Errorf("cancelled before any job ran: %d of %d jobs lost, want all", rep.Lost, rep.Jobs)
	}
	time.Sleep(2500 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(late) > 0 {
		t.Fatalf("logged after RunLoad returned: %q", late)
	}
}

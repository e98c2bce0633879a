package algoprof_test

import (
	"fmt"
	"io"
	"regexp"
	"testing"

	"algoprof"
	"algoprof/internal/trace"
	"algoprof/internal/verify"
	"algoprof/internal/workloads"
)

// instrLine matches the profile JSON's executed-instruction count. The two
// modes execute different instruction streams by construction (path-mode
// superinstructions replace probe sequences), so this one field is
// normalized before the byte comparison; everything decoded — costs,
// sizes, series, classifications, fits — must match exactly.
var instrLine = regexp.MustCompile(`"instructions": \d+`)

// equivalenceCorpus lists programs on which path-counter decode is exact:
// every counted-loop access site resolves to a single input for the whole
// invocation, so the decoded profile must be byte-identical to the
// events-mode one.
var equivalenceCorpus = []struct {
	name string
	src  string
}{
	{"running-random", workloads.RunningExample(workloads.Random, 48, 6, 2)},
	{"running-sorted", workloads.RunningExample(workloads.Sorted, 48, 6, 2)},
	{"running-reversed", workloads.RunningExample(workloads.Reversed, 48, 6, 2)},
	{"running-checked", workloads.RunningExampleChecked(workloads.Random, 36, 6, 2)},
	{"running-scanned", workloads.RunningExampleScanned(workloads.Random, 36, 6, 2, 2)},
	{"functional-sort", workloads.FunctionalSort(workloads.Random, 36, 6, 2)},
	{"arraylist-naive", workloads.ArrayListGrow(true, 48, 6, 2)},
	{"arraylist-ideal", workloads.ArrayListGrow(false, 48, 6, 2)},
	{"listing3", workloads.Listing3},
	{"threaded", workloads.Threaded(2, 24)},
	{"listing4", workloads.Listing4(40)},
	{"listing5", workloads.Listing5},
}

// profilePair runs one program in both modes under otherwise identical
// configs and returns the rendered trees and JSON profiles.
func profilePair(t *testing.T, src string, cfg algoprof.Config) (evTree, ptTree string, evJSON, ptJSON []byte) {
	t.Helper()
	cfg.Mode = algoprof.ModeEvents
	ev, err := algoprof.Run(src, cfg)
	if err != nil {
		t.Fatalf("events mode: %v", err)
	}
	cfg.Mode = algoprof.ModePaths
	pt, err := algoprof.Run(src, cfg)
	if err != nil {
		t.Fatalf("paths mode: %v", err)
	}
	evJSON, err = ev.JSON()
	if err != nil {
		t.Fatalf("events JSON: %v", err)
	}
	ptJSON, err = pt.JSON()
	if err != nil {
		t.Fatalf("paths JSON: %v", err)
	}
	evJSON = instrLine.ReplaceAll(evJSON, []byte(`"instructions": X`))
	ptJSON = instrLine.ReplaceAll(ptJSON, []byte(`"instructions": X`))
	return ev.Tree(), pt.Tree(), evJSON, ptJSON
}

// TestPathModeEquivalence is the exactness gate the issue requires: on
// every corpus program where decode is exact, the paths-mode profile —
// tree rendering and serialized JSON — must be byte-identical to the
// events-mode profile.
func TestPathModeEquivalence(t *testing.T) {
	for _, tc := range equivalenceCorpus {
		t.Run(tc.name, func(t *testing.T) {
			evTree, ptTree, evJSON, ptJSON := profilePair(t, tc.src, algoprof.Config{})
			if evTree != ptTree {
				t.Errorf("trees differ\n--- events ---\n%s\n--- paths ---\n%s", evTree, ptTree)
			}
			if string(evJSON) != string(ptJSON) {
				t.Errorf("JSON differs\n--- events ---\n%s\n--- paths ---\n%s", evJSON, ptJSON)
			}
		})
	}
}

// TestPathModeEquivalenceEager repeats the gate under the eager-identify
// ablation: with no pending groups in play at all, site resolutions bind
// inputs immediately and the decode must still match.
func TestPathModeEquivalenceEager(t *testing.T) {
	for _, tc := range equivalenceCorpus {
		t.Run(tc.name, func(t *testing.T) {
			evTree, ptTree, _, _ := profilePair(t, tc.src, algoprof.Config{EagerIdentify: true})
			if evTree != ptTree {
				t.Errorf("trees differ\n--- events ---\n%s\n--- paths ---\n%s", evTree, ptTree)
			}
		})
	}
}

// inexactSrc walks two distinct lists through the same access sites in a
// single loop invocation (the cursor hops from list a to list b midway).
// Events mode splits the access costs across both inputs; paths mode
// resolves each site once per invocation, so decode attributes all counts
// to the first-touched input. This is the documented tolerance: per-input
// attribution may shift, totals never do.
const inexactSrc = `
class Node { int value; Node next; }
class Main {
  public static void main() {
    Node a = build(12);
    Node b = build(20);
    int r = 0;
    int hopped = 0;
    Node cur = a;
    while (cur != null) {
      r = r + cur.value;
      cur = cur.next;
      if (cur == null) {
        if (hopped == 0) { hopped = 1; cur = b; }
      }
    }
    print(r);
  }
  static Node build(int n) {
    Node head = null;
    for (int i = 0; i < n; i++) {
      Node x = new Node();
      x.value = i;
      x.next = head;
      head = x;
    }
    return head;
  }
}`

// TestPathModeInexactTolerance pins the documented behaviour on a program
// outside the exactness envelope: the run must still succeed, verify
// cleanly, produce the same program output, and agree with events mode on
// the total step count (only per-input access attribution may shift).
func TestPathModeInexactTolerance(t *testing.T) {
	ev, err := algoprof.Run(inexactSrc, algoprof.Config{Verify: true})
	if err != nil {
		t.Fatalf("events mode: %v", err)
	}
	pt, err := algoprof.Run(inexactSrc, algoprof.Config{Mode: algoprof.ModePaths, Verify: true})
	if err != nil {
		t.Fatalf("paths mode: %v", err)
	}
	if fmt.Sprint(ev.Stdout) != fmt.Sprint(pt.Stdout) {
		t.Errorf("stdout differs: events %v, paths %v", ev.Stdout, pt.Stdout)
	}
	var evSteps, ptSteps int64
	for _, a := range ev.Algorithms {
		evSteps += a.TotalSteps
	}
	for _, a := range pt.Algorithms {
		ptSteps += a.TotalSteps
	}
	if evSteps != ptSteps {
		t.Errorf("total steps differ: events %d, paths %d", evSteps, ptSteps)
	}
}

// TestCheckPathDecode runs the decoded-vs-exact cross-check over the
// corpus: node-by-node invocation accounting and cost totals must agree
// between the two modes, and on the inexact program the per-op sums must
// still agree even though per-input attribution shifts.
func TestCheckPathDecode(t *testing.T) {
	for _, tc := range equivalenceCorpus {
		t.Run(tc.name, func(t *testing.T) {
			ev, err := algoprof.Run(tc.src, algoprof.Config{})
			if err != nil {
				t.Fatalf("events mode: %v", err)
			}
			pt, err := algoprof.Run(tc.src, algoprof.Config{Mode: algoprof.ModePaths})
			if err != nil {
				t.Fatalf("paths mode: %v", err)
			}
			evProf, _ := ev.Raw()
			ptProf, _ := pt.Raw()
			for _, v := range verify.CheckPathDecode(evProf, ptProf) {
				t.Errorf("%s", v)
			}
		})
	}
	t.Run("inexact-sums", func(t *testing.T) {
		ev, err := algoprof.Run(inexactSrc, algoprof.Config{})
		if err != nil {
			t.Fatalf("events mode: %v", err)
		}
		pt, err := algoprof.Run(inexactSrc, algoprof.Config{Mode: algoprof.ModePaths})
		if err != nil {
			t.Fatalf("paths mode: %v", err)
		}
		evProf, _ := ev.Raw()
		ptProf, _ := pt.Raw()
		evSums, ptSums := verify.SumByOp(evProf), verify.SumByOp(ptProf)
		for op, v := range evSums {
			if got := ptSums[op]; got != v {
				t.Errorf("op %s: events total %d, decoded total %d", op, v, got)
			}
		}
	})
}

// TestPathModeVerified runs the corpus through the online verifier in
// paths mode (tree invariants still hold; stream agreement is gated off
// for counted loops). The verifier puts a transport between the VM and
// the profiler, so SiteTouch answers come through the producer.
func TestPathModeVerified(t *testing.T) {
	for _, tc := range equivalenceCorpus {
		t.Run(tc.name, func(t *testing.T) {
			evTree, ptTree, _, _ := profilePair(t, tc.src,
				algoprof.Config{Verify: true})
			if evTree != ptTree {
				t.Errorf("trees differ\n--- events ---\n%s\n--- paths ---\n%s", evTree, ptTree)
			}
		})
	}
}

// TestPathModeRejectsRecording pins the explicit error paths: traces carry
// the exact event stream, so recording and replay refuse paths mode.
func TestPathModeRejectsRecording(t *testing.T) {
	_, err := algoprof.Record(workloads.Listing3, algoprof.Config{Mode: algoprof.ModePaths}, io.Discard, trace.WriterOptions{})
	if err == nil {
		t.Fatal("Record accepted paths mode")
	}
}

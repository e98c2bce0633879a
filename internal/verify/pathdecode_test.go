package verify_test

import (
	"strings"
	"testing"

	"algoprof"
	"algoprof/internal/core"
	"algoprof/internal/verify"
)

// decodeSrc is the program CheckPathDecode's pairs vary: main fills an
// array in one loop, then sums it through calls; sum's loop body is body.
// extra is declared between main and sum, so a loop in it takes the loop
// id between theirs.
func decodeSrc(calls, extra, body string) string {
	return `class Main {
  public static void main() {
    int[] a = new int[4];
    for (int i = 0; i < 4; i++) { a[i] = i; }
    ` + calls + `
  }
  ` + extra + `
  static int sum(int[] a, int n) {
    int s = 0;
    for (int j = 0; j < n; j++) { ` + body + ` }
    return s;
  }
}`
}

const (
	threeSums = "sum(a, 4); sum(a, 4); sum(a, 4);"
	sumBody   = "s = s + a[j];"
	spinDecl  = "static void spin() { for (int k = 0; k < 2; k++) { } }"
)

// profileMode profiles src in one mode and returns its finished profiler.
func profileMode(t *testing.T, src, mode string, sampleEvery int) *core.Profiler {
	t.Helper()
	p, err := algoprof.Run(src, algoprof.Config{Mode: mode, SampleEvery: sampleEvery})
	if err != nil {
		t.Fatalf("%s mode: %v", mode, err)
	}
	prof, _ := p.Raw()
	return prof
}

// TestCheckPathDecodeRules: an events-mode run and a paths-mode run of the
// same program agree, and each rule fires, alone, when the paths-mode run
// differs in exactly one respect: its program or, for the recorded count,
// its sampling interval.
func TestCheckPathDecodeRules(t *testing.T) {
	base := decodeSrc(threeSums, "", sumBody)
	for _, tc := range []struct {
		name           string
		events, paths  string
		evSample       int
		ptSample       int
		rule, contains string
		n              int // violations expected when rule is set; 0 means 1
	}{
		{name: "clean", events: base, paths: base},
		{name: "node id", events: base, paths: decodeSrc(threeSums, spinDecl, sumBody),
			rule: "path-decode-shape", contains: "paths-mode tree has"},
		{name: "child count", events: decodeSrc(threeSums, spinDecl, sumBody),
			paths: decodeSrc(threeSums+" spin();", spinDecl, sumBody),
			rule:  "path-decode-shape", contains: "2 children in events mode, 3 in paths mode"},
		// Sampling every 2nd invocation records 2 of 3 invocations and 2
		// of 4, and a sum over 0 elements adds no cost.
		{name: "started", events: base, paths: decodeSrc(threeSums+" sum(a, 0);", "", sumBody),
			evSample: 2, ptSample: 2,
			rule: "path-decode-accounting", contains: "3 invocations started in events mode, 4 in paths mode"},
		{name: "recorded", events: base, paths: base, ptSample: 2,
			rule: "path-decode-accounting", contains: "3 invocations recorded in events mode, 2 in paths mode"},
		// A load counts under an untyped and an int[]-typed key, so each
		// cost case flags both.
		{name: "total", events: base, paths: decodeSrc(threeSums, "", "s = s + a[j] + a[j];"),
			rule: "path-decode-costs", contains: "LOAD} = 12 in events mode, 24 decoded", n: 2},
		{name: "absent", events: decodeSrc(threeSums, "", "s = s + j;"), paths: base,
			rule: "path-decode-costs", contains: "LOAD} = 12 absent from events mode", n: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ev := profileMode(t, tc.events, algoprof.ModeEvents, tc.evSample)
			pt := profileMode(t, tc.paths, algoprof.ModePaths, tc.ptSample)
			vs := verify.CheckPathDecode(ev, pt)
			if tc.rule == "" {
				if len(vs) != 0 {
					t.Fatalf("agreeing runs flagged: %v", vs)
				}
				return
			}
			want := max(tc.n, 1)
			ok := len(vs) == want
			for _, v := range vs {
				ok = ok && v.Rule == tc.rule && strings.Contains(v.Msg, tc.contains)
			}
			if !ok {
				t.Fatalf("got %v, want %d %s violation(s) containing %q", vs, want, tc.rule, tc.contains)
			}
		})
	}
}

package benchfile

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"algoprof/internal/trace"
)

// TestSummarize pins the quantile method (linear interpolation at rank
// p·(n+1)) and the sample counts from which the tail percentiles appear.
func TestSummarize(t *testing.T) {
	got := Summarize([]float64{7, 1, 3, 5})
	if want := (Summary{Median: 4, Q1: 1.5, Q3: 6.5, N: 4}); got != want {
		t.Errorf("Summarize(7,1,3,5) = %+v, want %+v", got, want)
	}
	series := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n              int
		tail95, tail99 bool
	}{{39, false, false}, {199, false, false}, {200, true, false}, {999, true, false}, {1000, true, true}} {
		s := Summarize(series(tc.n))
		if (s.P95 != 0) != tc.tail95 || (s.P99 != 0) != tc.tail99 {
			t.Errorf("n=%d: p95=%v p99=%v, want p95 set %v, p99 set %v", tc.n, s.P95, s.P99, tc.tail95, tc.tail99)
		}
	}
	if s := Summarize(series(1000)); math.Abs(s.P99-990.99) > 1e-9 {
		t.Errorf("p99 of 1..1000 = %v, want 990.99", s.P99)
	}
}

// TestCommittedFiles holds every committed BENCH_*.json to one shape: the
// shared header from a committed build that writes the current trace
// format, every timing (a key ending in _ns or _ms) as a summary of at
// least one sample, and the events/paths median `paper bench -check`
// reads. A trace-format bump without a re-record fails here.
func TestCommittedFiles(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed BENCH_*.json files")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(path)
		var doc map[string]any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		for _, key := range []string{"commit", "vcs_modified", "go_version", "gomaxprocs", "nproc", "trace_format_version", "generated_unix"} {
			if _, ok := doc[key]; !ok {
				t.Errorf("%s: header key %q missing", name, key)
			}
		}
		var h Header
		if err := json.Unmarshal(data, &h); err != nil {
			t.Errorf("%s: header: %v", name, err)
			continue
		}
		if h.Commit == "" || h.Commit == "unknown" || h.VCSModified {
			t.Errorf("%s: commit %q (modified %v): record from a build of a committed tree (make bench)", name, h.Commit, h.VCSModified)
		}
		if h.TraceFormatVersion != trace.Version {
			t.Errorf("%s: trace format %d, the build writes %d: re-record with make bench", name, h.TraceFormatVersion, trace.Version)
		}
		checkTimings(t, name, doc)
	}

	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_overhead.json"))
	if err != nil {
		t.Fatal(err)
	}
	var overhead struct {
		Modes struct {
			EventsOverPaths Summary `json:"events_over_paths"`
		} `json:"mode_overhead"`
	}
	if err := json.Unmarshal(data, &overhead); err != nil {
		t.Fatal(err)
	}
	if s := overhead.Modes.EventsOverPaths; s.Median <= 0 || s.N == 0 {
		t.Errorf("BENCH_overhead.json: mode_overhead.events_over_paths = %+v, want a median over at least one round", s)
	}
}

// checkTimings walks v and requires every value under a key ending in
// _ns or _ms to be a summary: median, q1, q3 and a positive n.
func checkTimings(t *testing.T, at string, v any) {
	t.Helper()
	switch v := v.(type) {
	case []any:
		for _, e := range v {
			checkTimings(t, at+"[]", e)
		}
	case map[string]any:
		for key, e := range v {
			path := at + "." + key
			if strings.HasSuffix(key, "_ns") || strings.HasSuffix(key, "_ms") {
				s, ok := e.(map[string]any)
				n, _ := s["n"].(float64)
				_, median := s["median"]
				_, q1 := s["q1"]
				_, q3 := s["q3"]
				if !ok || !median || !q1 || !q3 || n <= 0 {
					t.Errorf("%s = %v: want {median, q1, q3, n} with n > 0", path, e)
				}
				continue
			}
			checkTimings(t, path, e)
		}
	}
}

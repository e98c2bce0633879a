package faultinject

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// fireSequence draws n Fire results from a fresh plan's point.
func fireSequence(seed uint64, point string, n int) []bool {
	pt := NewPlan(seed).Arm(point, PointConfig{Prob: 0.3})
	out := make([]bool, n)
	for i := range out {
		out[i] = pt.Fire()
	}
	return out
}

// TestDeterministicStreams: the same seed and point name reproduce the
// same fire sequence, and different seeds or names diverge.
func TestDeterministicStreams(t *testing.T) {
	a := fireSequence(7, "fs.write", 200)
	b := fireSequence(7, "fs.write", 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs for identical seed+name", i)
		}
	}
	same := func(x, y []bool) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if same(a, fireSequence(8, "fs.write", 200)) {
		t.Error("different seeds produced identical streams")
	}
	if same(a, fireSequence(7, "fs.sync", 200)) {
		t.Error("different point names produced identical streams")
	}
}

// TestPointIndependence: a point's stream depends only on how many
// operations it has seen, not on draws made by other points in between.
func TestPointIndependence(t *testing.T) {
	solo := fireSequence(11, "fs.rename", 100)

	p := NewPlan(11)
	rename := p.Arm("fs.rename", PointConfig{Prob: 0.3})
	other := p.Arm("fs.write", PointConfig{Prob: 0.9})
	for i := 0; i < 100; i++ {
		// Interleave heavy traffic on the other point.
		other.Fire()
		other.Fire()
		if got := rename.Fire(); got != solo[i] {
			t.Fatalf("draw %d changed under interleaved traffic on another point", i)
		}
	}
}

// TestMaxFires bounds the number of fires, not the number of draws.
func TestMaxFires(t *testing.T) {
	pt := NewPlan(3).Arm("fs.sync", PointConfig{Prob: 1, MaxFires: 2})
	fires := 0
	for i := 0; i < 50; i++ {
		if pt.Fire() {
			fires++
		}
	}
	if fires != 2 {
		t.Errorf("fired %d times, want 2", fires)
	}
	if pt.Ops() != 50 {
		t.Errorf("saw %d ops, want 50", pt.Ops())
	}
}

// TestPathSuffix: non-matching paths draw nothing, so the schedule for
// matching paths is independent of unrelated traffic.
func TestPathSuffix(t *testing.T) {
	want := func() []bool {
		pt := NewPlan(5).Arm(PointWrite, PointConfig{Prob: 0.5, PathSuffix: "trace.bin"})
		out := make([]bool, 50)
		for i := range out {
			out[i] = pt.FireFor("/store/run/trace.bin")
		}
		return out
	}()
	pt := NewPlan(5).Arm(PointWrite, PointConfig{Prob: 0.5, PathSuffix: "trace.bin"})
	for i := 0; i < 50; i++ {
		if pt.FireFor("/store/run/manifest.json.tmp123") {
			t.Fatal("fired on a non-matching path")
		}
		if got := pt.FireFor("/store/run/trace.bin"); got != want[i] {
			t.Fatalf("draw %d changed under interleaved non-matching traffic", i)
		}
	}
}

// TestClassOf covers the taxonomy: Fault classes and wrapping, Classifier
// implementations anywhere in the chain, errno mapping, and the Unknown
// fallback.
func TestClassOf(t *testing.T) {
	cases := []struct {
		err  error
		want FaultClass
	}{
		{nil, Unknown},
		{errors.New("mystery"), Unknown},
		{&Fault{Class: Transient, Point: "p"}, Transient},
		{&Fault{Class: Corruption, Point: "p"}, Corruption},
		{fmt.Errorf("wrapped: %w", &Fault{Class: Resource, Point: "p", Err: syscall.ENOSPC}), Resource},
		{syscall.ENOSPC, Resource},
		{fmt.Errorf("op: %w", syscall.EMFILE), Resource},
		{syscall.EDQUOT, Resource},
		{io.ErrShortWrite, Transient},
		{fmt.Errorf("op: %w", syscall.EINTR), Transient},
		{syscall.EAGAIN, Transient},
	}
	for _, c := range cases {
		if got := ClassOf(c.err); got != c.want {
			t.Errorf("ClassOf(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestParseClass: every class round-trips through String, and any other
// name — empty, "unknown" or junk — parses to Unknown.
func TestParseClass(t *testing.T) {
	for _, c := range []FaultClass{Unknown, Transient, Corruption, Resource} {
		if got := ParseClass(c.String()); got != c {
			t.Errorf("ParseClass(%q) = %v, want %v", c.String(), got, c)
		}
	}
	for _, name := range []string{"", "unknown", "Transient", "corrupt", "resource ", "🙃"} {
		if got := ParseClass(name); got != Unknown {
			t.Errorf("ParseClass(%q) = %v, want unknown", name, got)
		}
	}
}

// TestRetryTransientOnly: the retry policy retries transient failures with
// doubling backoff and returns every other class immediately.
func TestRetryTransientOnly(t *testing.T) {
	var slept []time.Duration
	pol := RetryPolicy{Attempts: 4, Backoff: time.Millisecond, Sleep: func(d time.Duration) { slept = append(slept, d) }}

	calls := 0
	err := pol.Do(func() error {
		calls++
		if calls < 3 {
			return &Fault{Class: Transient, Point: "p", Err: syscall.EINTR}
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Errorf("transient retry: err=%v calls=%d, want success on call 3", err, calls)
	}
	if len(slept) != 2 || slept[0] != time.Millisecond || slept[1] != 2*time.Millisecond {
		t.Errorf("backoff %v, want [1ms 2ms]", slept)
	}

	calls = 0
	resource := &Fault{Class: Resource, Point: "p", Err: syscall.ENOSPC}
	if err := pol.Do(func() error { calls++; return resource }); err != resource || calls != 1 {
		t.Errorf("resource fault: err=%v calls=%d, want immediate return", err, calls)
	}

	calls = 0
	err = pol.Do(func() error { calls++; return &Fault{Class: Transient, Point: "p"} })
	if err == nil || calls != 4 {
		t.Errorf("persistent transient: err=%v calls=%d, want failure after 4 attempts", err, calls)
	}
}

// TestFSWriteFaults drives the faultFile write paths against a real file:
// outright errors, short writes (prefix persisted, typed transient error),
// and silent single-bit flips.
func TestFSWriteFaults(t *testing.T) {
	payload := []byte("algorithmic profiling event frame payload")

	writeVia := func(t *testing.T, plan *Plan) ([]byte, error) {
		t.Helper()
		dir := t.TempDir()
		path := filepath.Join(dir, "trace.bin")
		f, err := plan.FS(OS()).Create(path)
		if err != nil {
			t.Fatal(err)
		}
		_, werr := f.Write(payload)
		if cerr := f.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data, werr
	}

	t.Run("write-error", func(t *testing.T) {
		plan := NewPlan(1)
		plan.Arm(PointWrite, PointConfig{Prob: 1, Class: Resource, Errno: syscall.ENOSPC})
		data, err := writeVia(t, plan)
		if ClassOf(err) != Resource || !errors.Is(err, syscall.ENOSPC) {
			t.Errorf("err = %v, want typed ENOSPC resource fault", err)
		}
		if len(data) != 0 {
			t.Errorf("write error persisted %d bytes, want none", len(data))
		}
	})

	t.Run("short-write", func(t *testing.T) {
		plan := NewPlan(2)
		plan.Arm(PointShortWrite, PointConfig{Prob: 1, MaxFires: 1})
		data, err := writeVia(t, plan)
		if ClassOf(err) != Transient || !errors.Is(err, io.ErrShortWrite) {
			t.Errorf("err = %v, want typed transient short write", err)
		}
		if len(data) >= len(payload) {
			t.Errorf("short write persisted %d bytes, want a strict prefix of %d", len(data), len(payload))
		}
		if string(data) != string(payload[:len(data)]) {
			t.Error("short write persisted bytes that are not a prefix of the payload")
		}
	})

	t.Run("bitflip", func(t *testing.T) {
		plan := NewPlan(3)
		plan.Arm(PointBitFlip, PointConfig{Prob: 1, MaxFires: 1, Class: Corruption})
		data, err := writeVia(t, plan)
		if err != nil {
			t.Fatalf("bit flip must be silent, got %v", err)
		}
		if len(data) != len(payload) {
			t.Fatalf("persisted %d bytes, want %d", len(data), len(payload))
		}
		flipped := 0
		for i := range data {
			for b := data[i] ^ payload[i]; b != 0; b &= b - 1 {
				flipped++
			}
		}
		if flipped != 1 {
			t.Errorf("%d bits differ, want exactly 1", flipped)
		}
	})
}

// TestFSOperationFaults: each wrapped filesystem operation surfaces its
// point's typed fault.
func TestFSOperationFaults(t *testing.T) {
	dir := t.TempDir()
	arm := func(point string) FS {
		plan := NewPlan(9)
		plan.Arm(point, PointConfig{Prob: 1, Class: Resource, Errno: syscall.EMFILE})
		return plan.FS(OS())
	}
	checks := []struct {
		point string
		op    func(FS) error
	}{
		{PointMkdir, func(f FS) error { return f.MkdirAll(filepath.Join(dir, "sub"), 0o755) }},
		{PointCreate, func(f FS) error { _, err := f.Create(filepath.Join(dir, "x")); return err }},
		{PointCreate, func(f FS) error { _, err := f.CreateTemp(dir, "x*"); return err }},
		{PointRename, func(f FS) error { return f.Rename(filepath.Join(dir, "a"), filepath.Join(dir, "b")) }},
		{PointRemove, func(f FS) error { return f.Remove(filepath.Join(dir, "a")) }},
		{PointReadFile, func(f FS) error { _, err := f.ReadFile(filepath.Join(dir, "a")); return err }},
		{PointReadFile, func(f FS) error { _, err := f.Open(filepath.Join(dir, "a")); return err }},
		{PointReadDir, func(f FS) error { _, err := f.ReadDir(dir); return err }},
	}
	for _, c := range checks {
		err := c.op(arm(c.point))
		var fault *Fault
		if !errors.As(err, &fault) || fault.Point != c.point {
			t.Errorf("%s: err = %v, want fault from that point", c.point, err)
			continue
		}
		if ClassOf(err) != Resource || !errors.Is(err, syscall.EMFILE) {
			t.Errorf("%s: err = %v, want typed EMFILE resource fault", c.point, err)
		}
	}
}

// TestNilPlanSafety: a nil plan arms nothing, fires nothing, and wraps
// nothing.
func TestNilPlanSafety(t *testing.T) {
	var p *Plan
	if p.Point("fs.write").Fire() {
		t.Error("nil plan fired")
	}
	if err := p.Point("fs.write").Err("op"); err != nil {
		t.Errorf("nil plan raised %v", err)
	}
	if p.Seed() != 0 {
		t.Error("nil plan has a seed")
	}
	base := OS()
	if got := p.FS(base); got != base {
		t.Error("nil plan wrapped the filesystem")
	}
}

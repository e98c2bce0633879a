package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"algoprof"
	"algoprof/internal/faultinject"
	"algoprof/internal/trace"
	"algoprof/internal/workloads"
)

// recordAuditRun stores one fault-free run of src and returns its
// directory.
func recordAuditRun(t *testing.T, src string) string {
	return recordAuditRunConfig(t, src, algoprof.Config{})
}

func recordAuditRunConfig(t *testing.T, src string, cfg algoprof.Config) string {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Record("run", src, "audit-test", cfg, trace.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, "run")
}

func recordCleanRun(t *testing.T) string {
	return recordAuditRun(t, workloads.RunningExample(workloads.Random, 48, 8, 1))
}

// recordThreadedRun stores a run that spawns two VM threads.
func recordThreadedRun(t *testing.T) string {
	return recordAuditRun(t, workloads.Threaded(2, 16))
}

// TestAuditCleanRun: an intact run directory audits clean, however its
// path is spelled.
func TestAuditCleanRun(t *testing.T) {
	runDir := recordCleanRun(t)
	for _, p := range []string{runDir, runDir + string(filepath.Separator)} {
		if fs := AuditRun(p); len(fs) != 0 {
			t.Fatalf("clean run %s flagged: %v", p, fs)
		}
	}
	fs, err := AuditStore(filepath.Dir(runDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("clean store flagged: %v", fs)
	}
}

// TestAuditThreadedRun: a threaded run audits clean — the audit replays
// the per-thread traces listed in the manifest, not just the main one —
// and damage to any thread trace is a finding.
func TestAuditThreadedRun(t *testing.T) {
	runDir := recordThreadedRun(t)
	if fs := AuditRun(runDir); len(fs) != 0 {
		t.Fatalf("clean threaded run flagged: %v", fs)
	}

	t.Run("missing-thread-trace", func(t *testing.T) {
		runDir := recordThreadedRun(t)
		if err := os.Remove(filepath.Join(runDir, ThreadTraceName(1))); err != nil {
			t.Fatal(err)
		}
		if fs := AuditRun(runDir); len(fs) == 0 {
			t.Fatal("run with missing thread trace audited clean")
		}
	})
	t.Run("thread-trace-bitflip", func(t *testing.T) {
		runDir := recordThreadedRun(t)
		path := filepath.Join(runDir, ThreadTraceName(2))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x10
		overwrite(t, path, data)
		fs := AuditRun(runDir)
		if len(fs) == 0 {
			t.Fatal("run with bit-flipped thread trace audited clean")
		}
		for _, f := range fs {
			if f.Class == faultinject.Unknown {
				t.Errorf("finding with unknown class: %v", f)
			}
		}
	})
}

// TestAuditFlagsCorruption: each class of deliberate damage to a run
// directory must produce at least one finding.
func TestAuditFlagsCorruption(t *testing.T) {
	damage := map[string]func(t *testing.T, runDir string){
		"garbage-manifest": func(t *testing.T, runDir string) {
			overwrite(t, filepath.Join(runDir, ManifestName), []byte("{not json"))
		},
		"missing-trace": func(t *testing.T, runDir string) {
			if err := os.Remove(filepath.Join(runDir, TraceName)); err != nil {
				t.Fatal(err)
			}
		},
		"program-tampered": func(t *testing.T, runDir string) {
			overwrite(t, filepath.Join(runDir, ProgramName), []byte("class Main { public static void main() {} }"))
		},
		"trace-bitflip": func(t *testing.T, runDir string) {
			path := filepath.Join(runDir, TraceName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x10
			overwrite(t, path, data)
		},
	}
	for name, corrupt := range damage {
		t.Run(name, func(t *testing.T) {
			runDir := recordCleanRun(t)
			corrupt(t, runDir)
			fs := AuditRun(runDir)
			if len(fs) == 0 {
				t.Fatal("damaged run audited clean")
			}
			for _, f := range fs {
				if f.Class == faultinject.Unknown {
					t.Errorf("finding with unknown class: %v", f)
				}
			}
		})
	}
}

// TestAuditManifestRoot: a manifest whose trace_merkle_root is not its
// trace's footer root — another root, or a trace whose footer carries
// none — is exactly one Corruption finding. The fleet diff trusts that
// root to stand for the trace.
func TestAuditManifestRoot(t *testing.T) {
	for name, damage := range map[string]func(t *testing.T, runDir string, m *Manifest){
		"other-root": func(t *testing.T, runDir string, m *Manifest) {
			m.TraceMerkleRoot = trace.Hash{}.String()
		},
		"no-footer": func(t *testing.T, runDir string, m *Manifest) {
			// Cut the index frame and trailer off, the shape of a recording
			// that crashed after its last data frame, and declare the run
			// degraded, so that only the root is wrong.
			path := filepath.Join(runDir, TraceName)
			ix, err := trace.OpenIndex(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, ix.DataEnd); err != nil {
				t.Fatal(err)
			}
			m.Degraded = true
			m.DegradedReasons = []string{interruptedReason}
		},
	} {
		t.Run(name, func(t *testing.T) {
			runDir := recordCleanRun(t)
			path := filepath.Join(runDir, ManifestName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var m Manifest
			if err := json.Unmarshal(data, &m); err != nil {
				t.Fatal(err)
			}
			if m.TraceMerkleRoot == "" {
				t.Fatal("recorded manifest names no trace merkle root")
			}
			damage(t, runDir, &m)
			if data, err = json.Marshal(&m); err != nil {
				t.Fatal(err)
			}
			overwrite(t, path, data)
			fs := AuditRun(runDir)
			if len(fs) != 1 || fs[0].Class != faultinject.Corruption || !strings.Contains(fs[0].Msg, "merkle root") {
				t.Fatalf("findings %v, want one Corruption finding about the merkle root", fs)
			}
		})
	}
}

// TestAuditSwappedTrace: a run whose trace was recorded from another
// program, one with more loops and methods than the run's own, is a
// Corruption finding of the verified replay instead of a crash of the
// audit, also when both are Backends runs, whose replay hands the donor's
// instruction ticks and method ids to the comparison profilers.
func TestAuditSwappedTrace(t *testing.T) {
	for _, cfg := range []algoprof.Config{{}, {Backends: true}} {
		donor := recordAuditRunConfig(t, workloads.RunningExample(workloads.Random, 48, 8, 1), cfg)
		runDir := recordAuditRunConfig(t, `
class Main {
  public static void main() {
    int s = 0;
    for (int i = 0; i < 8; i++) { s = s + i; }
    print(s);
  }
}`, cfg)
		data, err := os.ReadFile(filepath.Join(donor, TraceName))
		if err != nil {
			t.Fatal(err)
		}
		overwrite(t, filepath.Join(runDir, TraceName), data)
		fs, found := AuditRun(runDir), false
		for _, f := range fs {
			found = found || f.Class == faultinject.Corruption && strings.Contains(f.Msg, "verified replay failed")
		}
		if !found {
			t.Errorf("Backends=%v: findings %v, want a Corruption finding of the verified replay", cfg.Backends, fs)
		}
	}
}

// TestAuditStoreFlagsGarbageEntries: stray files and manifest-less
// directories — which the store listing deliberately skips — must still be
// flagged by the audit.
func TestAuditStoreFlagsGarbageEntries(t *testing.T) {
	runDir := recordCleanRun(t)
	dir := filepath.Dir(runDir)
	overwrite(t, filepath.Join(dir, "stray.txt"), []byte("not a run"))
	if err := os.Mkdir(filepath.Join(dir, "empty-run"), 0o755); err != nil {
		t.Fatal(err)
	}
	// The daemon's job journal is a legitimate store-level file — even
	// with a torn tail line, which is its normal post-crash state.
	overwrite(t, filepath.Join(dir, JournalName), []byte(`{"op":"enqueue","id":"j1"}`+"\n"+`{"op":"term`))
	fs, err := AuditStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 {
		t.Fatalf("got findings %v, want exactly the stray file and the empty dir", fs)
	}
}

func overwrite(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

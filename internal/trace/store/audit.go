package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"path/filepath"

	"algoprof"
	"algoprof/internal/faultinject"
)

// Finding is one audit defect in a stored run directory.
type Finding struct {
	// Run names the audited run directory.
	Run string
	// Class is the defect's fault class (Corruption for structural damage).
	Class faultinject.FaultClass
	// Msg describes the defect.
	Msg string
}

// String implements fmt.Stringer.
func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Run, f.Class, f.Msg)
}

// AuditStore audits every entry of a store directory — including the
// garbage entries List would skip — and returns the defects found.
// An empty result means every stored run is internally consistent.
func AuditStore(dir string) ([]Finding, error) {
	s := auditView(dir)
	ents, err := s.fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []Finding
	for _, e := range ents {
		switch {
		case e.IsDir():
			out = append(out, s.audit(e.Name())...)
		case e.Name() != JournalName:
			// The daemon's write-ahead job journal is a legitimate
			// store-level file, and a torn tail line after a crash is its
			// normal operating condition, not damage — the journal reader
			// declares and skips damaged lines itself.
			out = append(out, Finding{Run: e.Name(), Class: faultinject.Corruption,
				Msg: "stray file in store directory"})
		}
	}
	return out, nil
}

// AuditRun forensically audits one run directory: it must load the way
// Replay loads it (the manifest parses, the program matches its recorded
// hash and compiles, every trace decodes), truncation must be declared,
// a Merkle root the manifest names must be the main trace's, the verified
// replay must pass the invariant checker, and — for non-degraded runs —
// the replayed results must equal the manifest's.
// Each broken link is one finding; later checks that depend on it are
// skipped.
func AuditRun(runDir string) []Finding {
	runDir = filepath.Clean(runDir)
	return auditView(filepath.Dir(runDir)).audit(filepath.Base(runDir))
}

// auditView is a store over dir for reading only: unlike Open it creates
// nothing, so auditing a missing path reports it instead of making it.
func auditView(dir string) *Store {
	return &Store{dir: dir, fsys: faultinject.OS(), retry: faultinject.DefaultRetry, logf: log.Printf}
}

func (s *Store) audit(name string) []Finding {
	var out []Finding
	bad := func(class faultinject.FaultClass, format string, args ...any) {
		out = append(out, Finding{Run: name, Class: class, Msg: fmt.Sprintf(format, args...)})
	}
	// classOr types err, defaulting structural damage to Corruption.
	classOr := func(err error) faultinject.FaultClass {
		if c := faultinject.ClassOf(err); c != faultinject.Unknown {
			return c
		}
		return faultinject.Corruption
	}

	st, err := s.load(name)
	if err != nil {
		bad(classOr(err), "does not load: %v", err)
		return out
	}
	m := &st.run.Manifest
	if st.main.Stats().Truncated && !m.Degraded {
		bad(faultinject.Corruption, "trace is truncated but the manifest does not declare a degraded run")
	}
	for _, tid := range m.Threads {
		if st.threads[tid].Stats().Truncated && !m.Degraded {
			bad(faultinject.Corruption, "thread %d trace is truncated but the manifest does not declare a degraded run", tid)
		}
	}
	// The fleet diff trusts a manifest's root to stand for its trace.
	if want := m.TraceMerkleRoot; want != "" {
		switch ix := st.main.Index(); {
		case !ix.HasMerkle:
			bad(faultinject.Corruption, "manifest names trace merkle root %s but the trace's footer carries none", want)
		case ix.Root.String() != want:
			bad(faultinject.Corruption, "manifest names trace merkle root %s but the trace's footer carries %s", want, ix.Root)
		}
	}

	cfg := m.Config
	cfg.Verify = true
	prof, err := algoprof.ReplayProgramThreadsContext(context.Background(), st.prog, cfg, st.main, st.threads)
	if err != nil {
		bad(classOr(err), "verified replay failed: %v", err)
		return out
	}
	if !m.Degraded && !prof.Degraded {
		want, _ := json.Marshal(m.Algorithms)
		got, _ := json.Marshal(prof.Algorithms)
		if !bytes.Equal(want, got) {
			bad(faultinject.Corruption, "replayed cost functions differ from the manifest's")
		}
	}
	return out
}

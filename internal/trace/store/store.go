// Package store keeps a directory of recorded profiling runs. Each run is
// one subdirectory holding the program source, the event trace, and a
// manifest with the run's identity (program hash, workload, timestamp,
// configuration) plus its fitted cost functions — the portable artifact the
// paper's cost-function view produces. Stored runs replay offline through
// internal/trace, and pairs of runs diff into algorithmic regressions (see
// diff.go).
package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"algoprof"
	"algoprof/internal/faultinject"
	"algoprof/internal/mj/bytecode"
	"algoprof/internal/mj/compiler"
	"algoprof/internal/trace"
)

// File names inside a run directory.
const (
	manifestFile = "manifest.json"
	programFile  = "program.mj"
	traceFile    = "trace.bin"
)

// Artifact names inside a run directory, exported for audit tooling that
// inspects run directories without going through the Store API.
const (
	ManifestName = manifestFile
	ProgramName  = programFile
	TraceName    = traceFile
)

// ThreadTraceName is the per-thread trace file for spawned thread tid,
// stored beside the main trace.bin; the manifest's Threads field lists
// which ids exist.
func ThreadTraceName(tid int) string { return fmt.Sprintf("trace-t%d.bin", tid) }

// Manifest describes one stored run.
type Manifest struct {
	// FormatVersion is the trace format version the run was written with,
	// read back from the stored trace file itself (not assumed from the
	// writer's current default).
	FormatVersion int `json:"format_version"`
	// TraceMerkleRoot is the hex Merkle root over the trace's frames (empty
	// for v1 and interrupted traces, which carry no Merkle footer). The
	// differ and fleet scan compare roots to skip identical traces without
	// reading their frames.
	TraceMerkleRoot string `json:"trace_merkle_root,omitempty"`
	// CreatedUnix is the recording time (Unix seconds).
	CreatedUnix int64 `json:"created_unix"`
	// ProgramSHA256 hashes the profiled MJ source.
	ProgramSHA256 string `json:"program_sha256"`
	// Workload is a caller-supplied label for what the program ran.
	Workload string `json:"workload,omitempty"`
	// Tenant names the tenant the run was recorded for. Empty means a
	// legacy (or single-user) run: manifests written before the field
	// existed parse to "" and keep listing and replaying unchanged.
	Tenant string `json:"tenant,omitempty"`
	// Config is the profiling configuration; replay reuses it so the
	// offline profile matches the recorded one.
	Config algoprof.Config `json:"config"`
	// Stdout and Output are the program's results; they are not part of
	// the event stream, so the manifest carries them across replays.
	Stdout []string `json:"stdout,omitempty"`
	Output []string `json:"output,omitempty"`
	// Instructions is the executed bytecode instruction count, summed over
	// all threads.
	Instructions uint64 `json:"instructions"`
	// Threads lists the spawned thread ids whose per-thread traces
	// (trace-t<tid>.bin) sit beside the main trace; empty for
	// single-threaded runs. Replay merges them back into one report.
	Threads []int `json:"threads,omitempty"`
	// CostKeys is the run's interned cost-counter vocabulary, in dense-id
	// order.
	CostKeys []string `json:"cost_keys,omitempty"`
	// Algorithms are the profile's fitted results — the diffable artifact.
	Algorithms []algoprof.Algorithm `json:"algorithms"`
	// Degraded marks a run whose fidelity was cut — a resource limit
	// tripped, or the recording was interrupted. DegradedReasons says
	// why. A run directory carries a provisional degraded manifest
	// ("recording-interrupted") from the moment recording starts until it
	// completes, so a crash at any point leaves a run that lists and
	// partially replays instead of a corrupt directory.
	Degraded        bool     `json:"degraded,omitempty"`
	DegradedReasons []string `json:"degraded_reasons,omitempty"`
}

// Run is one stored run: its manifest plus, when freshly recorded or
// replayed, the full profile.
type Run struct {
	Name     string
	Dir      string
	Manifest Manifest
	// Profile is non-nil after Record or Replay; Load leaves it nil.
	Profile *algoprof.Profile
}

// Store is a directory of runs. All filesystem access goes through an
// faultinject.FS, so fault schedules can interpose on every operation;
// transient I/O failures are retried under a bounded backoff policy, while
// corruption and resource faults surface immediately as typed errors.
type Store struct {
	dir   string
	fsys  faultinject.FS
	retry faultinject.RetryPolicy
	logf  func(format string, args ...any)
}

// Open creates the store directory if needed.
func Open(dir string) (*Store, error) {
	return OpenFS(dir, faultinject.OS())
}

// OpenFS is Open with an explicit filesystem — the fault-injection seam.
// Production callers use Open; chaos harnesses pass a plan-wrapped FS.
func OpenFS(dir string, fsys faultinject.FS) (*Store, error) {
	s := &Store{dir: dir, fsys: fsys, retry: faultinject.DefaultRetry, logf: log.Printf}
	if err := s.retry.Do(func() error { return fsys.MkdirAll(dir, 0o755) }); err != nil {
		return nil, err
	}
	return s, nil
}

// SetRetry replaces the transient-I/O retry policy (tests shorten it).
func (s *Store) SetRetry(p faultinject.RetryPolicy) { s.retry = p }

// SetLogf replaces the logger List uses to report skipped garbage
// entries; nil silences it.
func (s *Store) SetLogf(f func(format string, args ...any)) {
	if f == nil {
		f = func(string, ...any) {}
	}
	s.logf = f
}

// CorruptRunError marks a stored run whose artifacts are damaged — an
// unparseable manifest, a program hash mismatch, or a corrupt trace. It
// classifies as faultinject.Corruption.
type CorruptRunError struct {
	// Run names the damaged run.
	Run string
	// Err is the underlying damage report.
	Err error
}

// Error implements error.
func (e *CorruptRunError) Error() string {
	return fmt.Sprintf("store: run %s corrupt: %s", e.Run, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *CorruptRunError) Unwrap() error { return e.Err }

// FaultClass implements faultinject.Classifier.
func (e *CorruptRunError) FaultClass() faultinject.FaultClass { return faultinject.Corruption }

// RunExistsError reports a Record against a run name already present in
// the store — either a finished run or one another recorder reserved
// concurrently. Run directories are create-once: the recording that wins
// the exclusive reservation owns the name, everyone else fails typed.
type RunExistsError struct {
	// Run names the contested run.
	Run string
}

// Error implements error.
func (e *RunExistsError) Error() string {
	return fmt.Sprintf("store: run %s already exists", e.Run)
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) runDir(name string) (string, error) {
	if name == "" || name != filepath.Base(name) {
		return "", fmt.Errorf("store: invalid run name %q", name)
	}
	return filepath.Join(s.dir, name), nil
}

// List names the stored runs, sorted. Unreadable or garbage entries — a
// directory with a missing or unparseable manifest, a stray file — are
// logged and skipped, so one damaged run never hides the rest of the
// store.
func (s *Store) List() ([]string, error) { return s.ListTenant("") }

// ListTenant is List scoped to one tenant: only runs whose manifest names
// that tenant are returned. The empty tenant means no filter — every run
// lists, including legacy manifests written before the tenant field
// existed (which parse to tenant "").
func (s *Store) ListTenant(tenant string) ([]string, error) {
	var ents []os.DirEntry
	err := s.retry.Do(func() (e error) {
		ents, e = s.fsys.ReadDir(s.dir)
		return e
	})
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		data, err := s.fsys.ReadFile(filepath.Join(s.dir, e.Name(), manifestFile))
		if err != nil {
			s.logf("store: skipping run %s: %v", e.Name(), err)
			continue
		}
		var m Manifest
		if err := json.Unmarshal(data, &m); err != nil {
			s.logf("store: skipping run %s: garbage manifest: %v", e.Name(), err)
			continue
		}
		if tenant != "" && m.Tenant != tenant {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// interruptedReason marks a run whose recording did not finish: it is
// written into the provisional manifest before the VM starts and replaced
// only when recording completes, so it survives any crash in between.
const interruptedReason = "recording-interrupted"

// Record profiles src under cfg, capturing the event trace, and stores the
// run as name. The run directory holds the source, the trace, and the
// manifest with the fitted cost functions.
func (s *Store) Record(name, src, workload string, cfg algoprof.Config, topts trace.WriterOptions) (*Run, error) {
	return s.RecordContext(context.Background(), name, src, workload, cfg, topts)
}

// RecordContext is Record with cooperative cancellation. Crash safety: the
// program source and a provisional manifest (marked degraded with reason
// "recording-interrupted") are persisted atomically before the profiled run
// starts, so a crash or kill at any point — including mid-trace-write —
// leaves a directory that List still names and Replay partially recovers.
// On cancellation or a contained panic the partial trace and provisional
// manifest are kept and the *algoprof.PartialError is returned; only
// outright setup failures remove the run directory again.
func (s *Store) RecordContext(ctx context.Context, name, src, workload string, cfg algoprof.Config, topts trace.WriterOptions) (*Run, error) {
	return s.RecordTenantContext(ctx, name, src, workload, "", cfg, topts)
}

// RecordTenantContext is RecordContext with the run stamped as tenant's.
// The tenant lands in the manifest — including the provisional one, so
// even a crashed recording stays attributable — and scopes ListTenant and
// FleetDiffTenant.
func (s *Store) RecordTenantContext(ctx context.Context, name, src, workload, tenant string, cfg algoprof.Config, topts trace.WriterOptions) (*Run, error) {
	dir, err := s.runDir(name)
	if err != nil {
		return nil, err
	}
	// Exclusive reservation: creating the run directory itself is the
	// atomic claim on the name. Two concurrent recorders of the same run
	// id race on one Mkdir; the loser fails typed instead of the two
	// interleaving writes into one directory.
	err = s.retry.Do(func() error {
		merr := s.fsys.Mkdir(dir, 0o755)
		if errors.Is(merr, os.ErrExist) {
			return &RunExistsError{Run: name}
		}
		return merr
	})
	if err != nil {
		return nil, err
	}
	if err := s.writeFileAtomic(filepath.Join(dir, programFile), []byte(src), 0o644); err != nil {
		return nil, err
	}
	sum := sha256.Sum256([]byte(src))
	m := Manifest{
		FormatVersion:   trace.Version,
		CreatedUnix:     time.Now().Unix(),
		ProgramSHA256:   hex.EncodeToString(sum[:]),
		Workload:        workload,
		Tenant:          tenant,
		Config:          cfg,
		Degraded:        true,
		DegradedReasons: []string{interruptedReason},
	}
	if err := s.writeManifest(dir, &m); err != nil {
		return nil, err
	}
	var tf faultinject.File
	err = s.retry.Do(func() (e error) {
		tf, e = s.fsys.Create(filepath.Join(dir, traceFile))
		return e
	})
	if err != nil {
		return nil, err
	}
	// Spawned threads each record into their own trace-t<tid>.bin beside
	// the main trace; the sink is called concurrently from spawning
	// threads, so the id list is mutex-guarded.
	var (
		tidMu sync.Mutex
		tids  []int
	)
	sink := func(tid int) (io.WriteCloser, error) {
		var f faultinject.File
		err := s.retry.Do(func() (e error) {
			f, e = s.fsys.Create(filepath.Join(dir, ThreadTraceName(tid)))
			return e
		})
		if err != nil {
			return nil, err
		}
		tidMu.Lock()
		tids = append(tids, tid)
		tidMu.Unlock()
		return f, nil
	}
	prof, runErr := algoprof.RecordSinkContext(ctx, src, cfg, tf, topts, sink)
	if cerr := tf.Close(); cerr != nil && runErr == nil {
		runErr = cerr
	}
	sort.Ints(tids)
	m.Threads = tids
	if runErr != nil {
		var pe *algoprof.PartialError
		if errors.As(runErr, &pe) {
			// Interrupted, not failed: keep the partial traces and fold the
			// salvaged profile (if any) into the still-degraded manifest so
			// the stored run is honest about what it holds.
			if pe.Profile != nil {
				fillManifest(&m, pe.Profile)
				m.Degraded = true
				m.DegradedReasons = append([]string{interruptedReason}, pe.Profile.DegradedReasons...)
				s.writeManifest(dir, &m)
			}
			return nil, runErr
		}
		// A genuine failure (compile error, internal error) stores nothing:
		// drop the provisional files and the directory so the run does not
		// list and the name is free to reserve again.
		s.fsys.Remove(filepath.Join(dir, traceFile))
		for _, tid := range tids {
			s.fsys.Remove(filepath.Join(dir, ThreadTraceName(tid)))
		}
		s.fsys.Remove(filepath.Join(dir, manifestFile))
		s.fsys.Remove(filepath.Join(dir, programFile))
		s.fsys.Remove(dir)
		return nil, runErr
	}

	fillManifest(&m, prof)
	m.Degraded = prof.Degraded
	m.DegradedReasons = prof.DegradedReasons
	s.stampTraceIndex(dir, &m)
	if err := s.writeManifest(dir, &m); err != nil {
		return nil, err
	}
	return &Run{Name: name, Dir: dir, Manifest: m, Profile: prof}, nil
}

// stampTraceIndex records what the stored trace file actually is — its
// format version and Merkle root, read back from the file's footer — into
// the manifest. Provenance over assumption: a manifest never claims a
// version the bytes on disk don't carry. Best-effort: a trace whose footer
// is unreadable (chaos FS, torn file) keeps the writer-default stamp.
func (s *Store) stampTraceIndex(dir string, m *Manifest) {
	ix, err := trace.OpenIndex(filepath.Join(dir, traceFile))
	if err != nil {
		return
	}
	m.FormatVersion = int(ix.Version)
	if ix.HasMerkle {
		m.TraceMerkleRoot = ix.Root.String()
	}
}

// fillManifest copies a (possibly partial) profile's results into m.
func fillManifest(m *Manifest, prof *algoprof.Profile) {
	m.Stdout = prof.Stdout
	m.Output = prof.Output
	m.Instructions = prof.Instructions
	m.Algorithms = prof.Algorithms
	m.CostKeys = nil
	if coreProf, _ := prof.Raw(); coreProf != nil {
		for _, k := range coreProf.CostKeys() {
			m.CostKeys = append(m.CostKeys, k.String())
		}
	}
}

func (s *Store) writeManifest(dir string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return s.writeFileAtomic(filepath.Join(dir, manifestFile), append(data, '\n'), 0o644)
}

// writeFileAtomic writes data to path via a temp file in the same
// directory plus rename, so readers never observe a torn or empty file —
// they see either the old content or the new, even across a crash.
// Transient failures retry the whole temp+write+rename sequence (the temp
// file is removed on every failure, so a retry starts clean).
func (s *Store) writeFileAtomic(path string, data []byte, perm os.FileMode) error {
	return s.retry.Do(func() error { return writeFileAtomicFS(s.fsys, path, data, perm) })
}

func writeFileAtomicFS(fsys faultinject.FS, path string, data []byte, perm os.FileMode) error {
	dir, base := filepath.Split(path)
	f, err := fsys.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = f.Chmod(perm)
	}
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
	}
	return err
}

// Load reads a stored run's manifest without replaying its trace.
func (s *Store) Load(name string) (*Run, error) {
	dir, err := s.runDir(name)
	if err != nil {
		return nil, err
	}
	var data []byte
	err = s.retry.Do(func() (e error) {
		data, e = s.fsys.ReadFile(filepath.Join(dir, manifestFile))
		return e
	})
	if err != nil {
		return nil, err
	}
	r := &Run{Name: name, Dir: dir}
	if err := json.Unmarshal(data, &r.Manifest); err != nil {
		return nil, &CorruptRunError{Run: name, Err: fmt.Errorf("garbage manifest: %w", err)}
	}
	return r, nil
}

// Replay loads a stored run and re-runs the profiler offline on its
// recorded trace, under the manifest's configuration. The replayed profile
// is byte-identical to the recorded one; program outputs come from the
// manifest.
func (s *Store) Replay(name string) (*Run, error) {
	return s.ReplayContext(context.Background(), name)
}

// ReplayContext is Replay with cooperative cancellation, checked at every
// trace frame. Runs whose recording was interrupted (crash-shaped traces
// with no index or trailer) replay through the reader's recovery path and
// come back as degraded profiles covering the captured prefix.
func (s *Store) ReplayContext(ctx context.Context, name string) (*Run, error) {
	return s.replayWith(ctx, name, algoprof.ReplayProgramThreadsContext)
}

// ReplayParallel is Replay with the trace's frame decoding fanned out over
// workers goroutines (≤ 0 means GOMAXPROCS); the resulting profile is
// byte-identical to a sequential replay's. v1 and interrupted traces fall
// back to the sequential path automatically.
func (s *Store) ReplayParallel(ctx context.Context, name string, workers int) (*Run, error) {
	return s.replayWith(ctx, name, func(ctx context.Context, prog *bytecode.Program, cfg algoprof.Config, tr *trace.Reader, threads map[int]*trace.Reader) (*algoprof.Profile, error) {
		return algoprof.ReplayProgramThreadsParallel(ctx, prog, cfg, tr, threads, workers)
	})
}

// replayWith loads a run and drives one replay strategy over its traces.
func (s *Store) replayWith(ctx context.Context, name string, replay func(context.Context, *bytecode.Program, algoprof.Config, *trace.Reader, map[int]*trace.Reader) (*algoprof.Profile, error)) (*Run, error) {
	st, err := s.load(name)
	if err != nil {
		return nil, err
	}
	prof, err := replay(ctx, st.prog, st.run.Manifest.Config, st.main, st.threads)
	if err != nil {
		return nil, err
	}
	prof.Stdout = st.run.Manifest.Stdout
	prof.Output = st.run.Manifest.Output
	st.run.Profile = prof
	return st.run, nil
}

// stored is a run read back for replay.
type stored struct {
	run *Run
	// prog is the stored program, checked against its hash and compiled.
	prog *bytecode.Program
	main *trace.Reader
	// threads holds one reader per thread id the manifest lists; nil for
	// a single-threaded run.
	threads map[int]*trace.Reader
}

// load reads everything a replay of run name needs. Replay and the audit
// share it, so both judge a run directory by the same reads.
func (s *Store) load(name string) (*stored, error) {
	r, err := s.Load(name)
	if err != nil {
		return nil, err
	}
	var src []byte
	err = s.retry.Do(func() (e error) {
		src, e = s.fsys.ReadFile(filepath.Join(r.Dir, programFile))
		return e
	})
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(src)
	if got := hex.EncodeToString(sum[:]); got != r.Manifest.ProgramSHA256 {
		return nil, &CorruptRunError{Run: name, Err: fmt.Errorf("program hash mismatch (manifest %s, file %s)",
			r.Manifest.ProgramSHA256, got)}
	}
	prog, err := compiler.CompileSource(string(src))
	if err != nil {
		return nil, err
	}
	var raw []byte
	err = s.retry.Do(func() (e error) {
		raw, e = s.fsys.ReadFile(filepath.Join(r.Dir, traceFile))
		return e
	})
	if err != nil {
		return nil, err
	}
	tr, err := trace.NewReader(raw)
	if err != nil {
		return nil, &CorruptRunError{Run: name, Err: err}
	}
	var threads map[int]*trace.Reader
	for _, tid := range r.Manifest.Threads {
		var traw []byte
		err = s.retry.Do(func() (e error) {
			traw, e = s.fsys.ReadFile(filepath.Join(r.Dir, ThreadTraceName(tid)))
			return e
		})
		if err != nil {
			return nil, err
		}
		ttr, err := trace.NewReader(traw)
		if err != nil {
			return nil, &CorruptRunError{Run: name, Err: fmt.Errorf("thread %d: %w", tid, err)}
		}
		if threads == nil {
			threads = map[int]*trace.Reader{}
		}
		threads[tid] = ttr
	}
	return &stored{run: r, prog: prog, main: tr, threads: threads}, nil
}

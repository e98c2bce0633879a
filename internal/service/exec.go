// Job execution seam. The daemon core (Submit/finish, quotas, journal)
// is decoupled from *where* a job's VM actually runs through the Executor
// interface: localExecutor runs it in-process against the daemon's own
// store, and the dispatch layer (internal/dispatch) implements the same
// interface over remote worker processes. Both sides share RunJob, so a
// job produces the identical outcome wherever it executes — the
// deterministic record→replay contract extended across process
// boundaries.
package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"algoprof"
	"algoprof/internal/experiments"
	"algoprof/internal/trace"
	"algoprof/internal/trace/store"
	"algoprof/internal/vm"
)

// ExecSpec is the self-contained description of one admitted job — the
// unit of work the daemon hands an Executor. It is JSON-serializable on
// purpose: the dispatch wire protocol ships it to workers verbatim, and
// the write-ahead journal persists it for crash recovery. Config.Limits
// are the post-clamp effective limits; re-executing a recovered or
// re-dispatched spec never re-runs quota admission.
type ExecSpec struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	// Key is the deterministic job key: SHA-256 over tenant, workload,
	// program, and configuration. Re-dispatches of one job share it, so
	// duplicate executions deduplicate by content.
	Key        string          `json:"key"`
	Workload   string          `json:"workload,omitempty"`
	Program    string          `json:"program"`
	Config     algoprof.Config `json:"config"`
	Persist    bool            `json:"persist,omitempty"`
	NoCompress bool            `json:"no_compress,omitempty"`
}

// JobKey computes a spec's deterministic deduplication key.
func JobKey(tenant, workload, program string, cfg algoprof.Config) string {
	h := sha256.New()
	for _, s := range []string{tenant, workload, program} {
		fmt.Fprintf(h, "%d:%s", len(s), s)
	}
	if data, err := json.Marshal(cfg); err == nil {
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ExecOutcome is what executing a spec produced. A non-nil outcome can
// accompany an error: a failed persist job may still have landed trace
// bytes that must be charged.
type ExecOutcome struct {
	ProfileJSON     json.RawMessage `json:"profile,omitempty"`
	Events          uint64          `json:"events,omitempty"`
	Instructions    uint64          `json:"instructions,omitempty"`
	Degraded        bool            `json:"degraded,omitempty"`
	DegradedReasons []string        `json:"degraded_reasons,omitempty"`
	TraceBytes      int64           `json:"trace_bytes,omitempty"`
	Backends        *BackendSummary `json:"backends,omitempty"`
	// Worker and DispatchAttempts are filled by the dispatch layer: which
	// worker finally executed the job and how many dispatch attempts
	// (retries across workers plus the final one) it took.
	Worker           string `json:"worker,omitempty"`
	DispatchAttempts int    `json:"dispatch_attempts,omitempty"`
}

// Executor runs one admitted job to completion. progress (may be nil)
// receives approximate executed-instruction counts while the job runs.
// Execute may return a non-nil outcome alongside an error (partial
// charges); returning (nil, nil) is a contract violation.
type Executor interface {
	Execute(ctx context.Context, spec ExecSpec, progress func(instructions uint64)) (*ExecOutcome, error)
}

// NewLocalExecutor returns the in-process Executor: jobs run on the
// calling goroutine against st.
func NewLocalExecutor(st *store.Store) Executor {
	return &localExecutor{store: st}
}

type localExecutor struct {
	store *store.Store
}

func (e *localExecutor) Execute(ctx context.Context, spec ExecSpec, progress func(uint64)) (*ExecOutcome, error) {
	return RunJob(ctx, e.store, spec, progress)
}

// RunJob executes one spec against st and assembles its outcome. It is
// the single execution path shared by the local executor and the remote
// dispatch worker. Partial-run salvage happens here: an interrupted run
// with a recoverable profile becomes a degraded outcome, never a lost
// job. A job with Config.Backends runs once, like any other, with the
// verifier on: a CCT or profile that disagrees with the stream fails the
// job with a *verify.Error.
func RunJob(ctx context.Context, st *store.Store, spec ExecSpec, progress func(uint64)) (*ExecOutcome, error) {
	cfg := spec.Config
	cfg.Verify = cfg.Verify || cfg.Backends
	if progress != nil {
		// Progress heartbeats ride the VM watchdog poll: every poll is
		// ~vm.WatchdogInterval instructions, so the counter approximates
		// executed instructions with no extra interpreter work.
		var polls atomic.Int64
		cfg.Watchdog = func() error {
			if n := polls.Add(1); n%progressEveryPolls == 0 {
				progress(uint64(n) * vm.WatchdogInterval)
			}
			return nil
		}
	}

	var run *store.Run
	var prof *algoprof.Profile
	var err error
	if spec.Persist {
		run, err = st.RecordTenantContext(ctx, spec.ID, spec.Program, spec.Workload, spec.Tenant, cfg,
			trace.WriterOptions{Compress: !spec.NoCompress})
		if run != nil {
			prof = run.Profile
		}
	} else {
		prof, err = algoprof.RunContext(ctx, spec.Program, cfg)
	}

	out := &ExecOutcome{}
	if err != nil {
		var pe *algoprof.PartialError
		if errors.As(err, &pe) && pe.Profile != nil {
			// PR 4 semantics: an interrupted run with a salvaged profile is
			// a degraded result, never a dropped job.
			prof = pe.Profile
			err = nil
			out.Degraded = true
		}
	}

	if prof != nil {
		out.Instructions = prof.Instructions
		if data, jerr := prof.JSON(); jerr == nil {
			// Compact form: JSON envelopes pass compact RawMessage bytes
			// through verbatim, so the profile a client reads off the wire
			// is byte-identical to the compacted library output.
			var buf bytes.Buffer
			if json.Compact(&buf, data) == nil {
				data = buf.Bytes()
			}
			out.ProfileJSON = data
		}
		// EventCount sums the main profiler and every spawned thread's.
		out.Events = prof.EventCount()
		out.Degraded = out.Degraded || prof.Degraded
		out.DegradedReasons = prof.DegradedReasons
		out.Backends = backendSummary(prof)
	}
	if spec.Persist {
		// Charge the stored trace regardless of outcome: a salvaged or
		// failed recording may still have landed bytes in the store.
		if fi, serr := os.Stat(filepath.Join(st.Dir(), spec.ID, store.TraceName)); serr == nil {
			out.TraceBytes = fi.Size()
		}
	}
	return out, err
}

// backendSummary condenses a Config.Backends profile's baselines: the
// main thread's hottest method and block, one such entry per spawned
// thread, and a hash over every backend's output. Nil without baselines.
func backendSummary(prof *algoprof.Profile) *BackendSummary {
	if len(prof.Baselines) == 0 {
		return nil
	}
	sum := sha256.Sum256([]byte(experiments.BackendsFingerprint(prof)))
	main := prof.Baselines[0]
	bs := &BackendSummary{
		Fingerprint:   hex.EncodeToString(sum[:]),
		HottestMethod: experiments.HottestExclusive(main),
		TopBlock:      experiments.TopBlock(main),
	}
	for _, b := range prof.Baselines[1:] {
		bs.Threads = append(bs.Threads, ThreadBackends{
			Thread:        b.Thread,
			HottestMethod: experiments.HottestExclusive(b),
			TopBlock:      experiments.TopBlock(b),
		})
	}
	return bs
}

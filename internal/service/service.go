// Package service turns the algoprof library into a long-running,
// multi-tenant profiling daemon: clients submit MJ programs with per-run
// configurations over HTTP/JSON, jobs queue on a bounded worker pool
// (internal/experiments.Pool), per-tenant quotas layer on the
// algoprof.Limits machinery, progress and results stream as NDJSON, and
// every completed events-mode run persists into the run store — so
// `algoprof verify`, `diff`, and `fleetdiff` work on service output
// unchanged.
//
// The lifecycle contract is the one the rest of the repo enforces: a job
// never disappears. Every admitted job terminates in exactly one of three
// statuses — "ok", "degraded" (a resource limit tripped and the run
// degraded deterministically, or a drain salvaged a partial profile), or
// "failed" with a typed error. Crashes and drains leave the store
// listable per the crash-safe write path.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"algoprof"
	"algoprof/internal/experiments"
	"algoprof/internal/faultinject"
	"algoprof/internal/mj/compiler"
	"algoprof/internal/trace/store"
)

// JobStatus is a job's lifecycle state.
type JobStatus string

// Job statuses. Queued and Running are transient; OK, Degraded, and Failed
// are terminal — every admitted job reaches exactly one of them.
const (
	StatusQueued   JobStatus = "queued"
	StatusRunning  JobStatus = "running"
	StatusOK       JobStatus = "ok"
	StatusDegraded JobStatus = "degraded"
	StatusFailed   JobStatus = "failed"
)

// Terminal reports whether the status is final.
func (s JobStatus) Terminal() bool {
	return s == StatusOK || s == StatusDegraded || s == StatusFailed
}

// DrainingError reports a submission rejected because the service is
// draining (SIGTERM). Typed and Resource-classed: the client should
// resubmit elsewhere or later.
type DrainingError struct{}

// Error implements error.
func (*DrainingError) Error() string { return "service: draining: not accepting new jobs" }

// FaultClass implements faultinject.Classifier.
func (*DrainingError) FaultClass() faultinject.FaultClass { return faultinject.Resource }

// OverloadError reports a submission rejected because the global job queue
// is full. Typed backpressure (Resource): retry with backoff.
type OverloadError struct{ Depth int }

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("service: job queue full (%d pending)", e.Depth)
}

// FaultClass implements faultinject.Classifier.
func (*OverloadError) FaultClass() faultinject.FaultClass { return faultinject.Resource }

// InvalidJobError reports a submission rejected at validation: an unknown
// mode, all_backends in paths mode, a bad tenant name, or a program that
// does not compile. It carries
// no fault class — it is the client's request that is wrong, not the
// service's resources (HTTP 400, not 429/503).
type InvalidJobError struct{ Reason string }

// Error implements error.
func (e *InvalidJobError) Error() string { return "service: invalid job: " + e.Reason }

// JobConfig is the per-run configuration a client submits. It is the
// JSON-friendly projection of algoprof.Config plus the service-level
// extras (all-backends pass, compression).
type JobConfig struct {
	// Mode is the profiling mode: "events" (default; persisted to the run
	// store) or "paths" (path counters; lower overhead, profile-only —
	// the trace format carries exact event streams, so paths-mode jobs
	// return their profile without persisting a trace).
	Mode string `json:"mode,omitempty"`
	// Seed drives the program's rand() builtin (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Input feeds the program's readInput() builtin.
	Input []int64 `json:"input,omitempty"`
	// SampleEvery keeps every k-th invocation record (§3.3 memory
	// optimization).
	SampleEvery int `json:"sample_every,omitempty"`
	// Verify attaches the online invariant verifier to the run.
	Verify bool `json:"verify,omitempty"`
	// AllBackends also feeds the paper's two comparison profilers, the
	// CCT and the basic-block counter, from the job's one execution
	// (algoprof.Config.Backends) and reports their summaries. Events mode
	// only; the job runs verified.
	AllBackends bool `json:"all_backends,omitempty"`
	// MaxEvents, MaxLiveBytes, MaxTraceBytes, DeadlineMs request
	// algoprof.Limits; tenant quotas clamp them (never loosen).
	MaxEvents     uint64 `json:"max_events,omitempty"`
	MaxLiveBytes  int64  `json:"max_live_bytes,omitempty"`
	MaxTraceBytes int64  `json:"max_trace_bytes,omitempty"`
	DeadlineMs    int64  `json:"deadline_ms,omitempty"`
	// NoCompress disables DEFLATE trace compression.
	NoCompress bool `json:"no_compress,omitempty"`
}

// SubmitRequest is one job submission.
type SubmitRequest struct {
	// Tenant names the submitting tenant ("default" when empty).
	Tenant string `json:"tenant,omitempty"`
	// Workload is a label stored in the run manifest.
	Workload string `json:"workload,omitempty"`
	// Program is the MJ source to profile.
	Program string `json:"program"`
	// Config is the per-run configuration.
	Config JobConfig `json:"config"`
	// InputSweep, when non-empty, expands the submission into one job per
	// entry, each with Config.Input set to that entry (HTTP layer only).
	InputSweep [][]int64 `json:"input_sweep,omitempty"`
}

// BackendSummary reports an all_backends job's comparison profilers.
type BackendSummary struct {
	// Fingerprint hashes all three backends' outputs (SHA-256 hex of
	// experiments.BackendsFingerprint); equal fingerprints mean
	// byte-identical profiles, CCTs, and basic-block counts, every
	// thread's included.
	Fingerprint string `json:"fingerprint"`
	// HottestMethod and TopBlock are the main thread's CCT and bb
	// headline results.
	HottestMethod string `json:"hottest_method"`
	TopBlock      string `json:"top_block"`
	// Threads holds each spawned thread's headline results, in thread-id
	// order.
	Threads []ThreadBackends `json:"threads,omitempty"`
}

// ThreadBackends is one spawned thread's CCT and bb headline results.
type ThreadBackends struct {
	Thread        int    `json:"thread"`
	HottestMethod string `json:"hottest_method"`
	TopBlock      string `json:"top_block"`
}

// JobView is a job's externally visible state — what GET /v1/jobs/{id}
// returns and what the result stream's final event carries.
type JobView struct {
	ID       string    `json:"id"`
	Tenant   string    `json:"tenant"`
	Workload string    `json:"workload,omitempty"`
	Status   JobStatus `json:"status"`
	// Persist reports whether the job records into the run store (events
	// mode) or returns a profile only (paths mode).
	Persist bool   `json:"persist"`
	Mode    string `json:"mode"`

	SubmittedUnixMs int64 `json:"submitted_unix_ms"`
	QueueMs         int64 `json:"queue_ms,omitempty"`
	RunMs           int64 `json:"run_ms,omitempty"`

	// EffectiveLimits are the job's limits after quota clamping — what the
	// run actually enforced.
	EffectiveLimits algoprof.Limits `json:"effective_limits"`

	// Degraded and DegradedReasons mirror the profile's degradation state
	// (PR 4 semantics: totals exact, series sampled).
	Degraded        bool     `json:"degraded,omitempty"`
	DegradedReasons []string `json:"degraded_reasons,omitempty"`

	// Error/ErrorKind/ErrorClass describe a failed job: the message, the
	// service-level kind ("draining", "cancelled", "persist", "internal",
	// ...), and the faultinject class ("transient", "corruption",
	// "resource", "unknown").
	Error      string `json:"error,omitempty"`
	ErrorKind  string `json:"error_kind,omitempty"`
	ErrorClass string `json:"error_class,omitempty"`

	// Instructions and Events are the executed instruction count and the
	// profiling events charged against the tenant's event budget.
	Instructions uint64 `json:"instructions,omitempty"`
	Events       uint64 `json:"events,omitempty"`
	// TraceBytes is the stored trace size charged against the tenant's
	// trace budget.
	TraceBytes int64 `json:"trace_bytes,omitempty"`

	Backends *BackendSummary `json:"backends,omitempty"`

	// Worker names the remote worker that executed the job (distributed
	// dispatch only) and DispatchAttempts counts the dispatch attempts it
	// took (1 = first try; 0 = executed locally, no dispatch layer).
	Worker           string `json:"worker,omitempty"`
	DispatchAttempts int    `json:"dispatch_attempts,omitempty"`

	// Profile is the profile's JSON (algorithms, cost functions, outputs)
	// for ok and degraded jobs — byte-identical to the same program and
	// config run through the library API.
	Profile json.RawMessage `json:"profile,omitempty"`
}

// Event is one entry in a job's NDJSON result stream.
type Event struct {
	// Type is "status" (lifecycle transition), "progress" (heartbeat), or
	// "result" (terminal, carries the final JobView).
	Type       string    `json:"type"`
	Job        string    `json:"job"`
	TimeUnixMs int64     `json:"time_unix_ms"`
	Status     JobStatus `json:"status,omitempty"`
	// Instructions approximates executed instructions so far (progress
	// events; derived from VM watchdog polls).
	Instructions uint64   `json:"instructions,omitempty"`
	ElapsedMs    int64    `json:"elapsed_ms,omitempty"`
	Result       *JobView `json:"result,omitempty"`
}

// Stats is the service-level snapshot served by /v1/stats.
type Stats struct {
	Queued    int   `json:"queued"`
	Running   int   `json:"running"`
	Completed int64 `json:"completed"`
	OK        int64 `json:"ok"`
	Degraded  int64 `json:"degraded"`
	Failed    int64 `json:"failed"`
	Draining  bool  `json:"draining"`
	// Recovering counts journal-recovered jobs still re-executing after a
	// restart; the service reports not-ready until it reaches zero.
	Recovering int `json:"recovering,omitempty"`
	Workers    int `json:"workers"`
	QueueCap   int `json:"queue_cap"`

	Tenants map[string]TenantStats `json:"tenants"`
}

// Config parameterizes a Service.
type Config struct {
	// StoreDir is the run store directory (required).
	StoreDir string
	// Workers bounds concurrent jobs (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds queued jobs across all tenants (0 = 256).
	QueueDepth int
	// DefaultQuota applies to tenants without an explicit entry; the zero
	// quota is unlimited.
	DefaultQuota Quota
	// Quotas are per-tenant overrides.
	Quotas map[string]Quota
	// Plan is the fault-injection schedule (nil = no faults): the
	// service.intake and service.persist points plus the store's fs.*
	// points all draw from it.
	Plan *faultinject.Plan
	// MakeExecutor, when set, wraps the local executor — the seam the
	// dispatch layer (internal/dispatch) hooks to route jobs to remote
	// workers. Called once in New, before journal recovery, so recovered
	// jobs also flow through it.
	MakeExecutor func(local Executor, st *store.Store) Executor
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

// progressEveryPolls throttles progress heartbeats: one event per this
// many VM watchdog polls (≈ this × vm.WatchdogInterval instructions).
const progressEveryPolls = 16

// tenantRE validates tenant names: path- and log-safe.
var tenantRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// job is the service-internal job state. All fields after construction are
// guarded by Service.mu except spec (immutable once admitted).
type job struct {
	view JobView
	spec ExecSpec
	// recovered marks a job re-enqueued from the write-ahead journal after
	// a restart; the service reports not-ready until all such jobs land.
	recovered bool

	submittedAt time.Time
	startedAt   time.Time

	subs []chan Event
}

// Service is the daemon core. One Service owns one run store, one job
// pool, one executor, one write-ahead journal, and the job table.
type Service struct {
	cfg     Config
	store   *store.Store
	pool    *experiments.Pool
	exec    Executor
	journal *store.Journal
	plan    *faultinject.Plan
	logf    func(string, ...any)
	epoch   int64 // job-ID namespace: distinct across daemon restarts on one store

	runCtx    context.Context
	runCancel context.CancelFunc

	mu         sync.Mutex
	jobs       map[string]*job
	order      []string
	tenants    *tenants
	seq        int64
	queued     int
	running    int
	recovering int
	completed  int64
	okCount    int64
	degCount   int64
	failCount  int64
	draining   bool
	forceDrain bool

	drainOnce sync.Once
	drainDone chan struct{}
}

// New opens the store, replays the write-ahead journal (re-executing jobs
// a previous daemon admitted but never finished and re-applying their
// quota charges exactly once), and starts the worker pool.
func New(cfg Config) (*Service, error) {
	if cfg.StoreDir == "" {
		return nil, fmt.Errorf("service: Config.StoreDir required")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	fsys := cfg.Plan.FS(faultinject.OS())
	st, err := store.OpenFS(cfg.StoreDir, fsys)
	if err != nil {
		return nil, err
	}
	st.SetLogf(logf)
	journal, entries, err := store.OpenJournalFS(
		filepath.Join(cfg.StoreDir, store.JournalName), fsys, faultinject.DefaultRetry, logf)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:       cfg,
		store:     st,
		pool:      experiments.NewPool(cfg.Workers, cfg.QueueDepth),
		journal:   journal,
		plan:      cfg.Plan,
		logf:      logf,
		epoch:     nextEpoch(entries),
		runCtx:    ctx,
		runCancel: cancel,
		jobs:      map[string]*job{},
		tenants:   newTenants(cfg.DefaultQuota, cfg.Quotas),
		drainDone: make(chan struct{}),
	}
	local := NewLocalExecutor(st)
	s.exec = local
	if cfg.MakeExecutor != nil {
		s.exec = cfg.MakeExecutor(local, st)
	}
	if err := s.recoverJournal(entries); err != nil {
		cancel()
		return nil, err
	}
	return s, nil
}

// nextEpoch picks a job-ID epoch strictly newer than anything in the
// journal, so a restart within the same wall-clock second cannot mint IDs
// that collide with recovered jobs.
func nextEpoch(entries []store.JournalEntry) int64 {
	epoch := time.Now().Unix()
	for _, e := range entries {
		if n := epochOf(e.ID); n >= epoch {
			epoch = n + 1
		}
	}
	return epoch
}

// epochOf parses the epoch out of a "j<epoch>-<seq>" job ID (0 if the ID
// has another shape).
func epochOf(id string) int64 {
	if !strings.HasPrefix(id, "j") {
		return 0
	}
	head, _, ok := strings.Cut(id[1:], "-")
	if !ok {
		return 0
	}
	n, err := strconv.ParseInt(head, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// recoverJournal turns the previous epoch's journal into live state:
// terminal and charge entries re-apply tenant quota charges exactly once,
// pending entries (admitted, never finished) re-enqueue for execution,
// and the journal compacts to per-tenant charge summaries plus the
// surviving pending entries. Safe because runs are deterministic:
// re-executing a pending job reproduces byte-identical artifacts.
func (s *Service) recoverJournal(entries []store.JournalEntry) error {
	if len(entries) == 0 {
		return nil
	}
	st := store.ReduceJournal(entries)

	// Re-apply aggregate charges: prior compaction summaries plus this
	// journal's terminal entries, each exactly once.
	folded := map[string]*store.JournalEntry{}
	var tenantOrder []string
	for _, e := range append(append([]store.JournalEntry{}, st.Charges...), st.Terminal...) {
		tenant := tenantOr(e.Tenant)
		s.tenants.get(tenant).charge(e.Events, e.TraceBytes)
		f := folded[tenant]
		if f == nil {
			f = &store.JournalEntry{Op: store.JournalCharge, Tenant: tenant}
			folded[tenant] = f
			tenantOrder = append(tenantOrder, tenant)
		}
		f.Events += e.Events
		f.TraceBytes += e.TraceBytes
		f.Jobs += max64(e.Jobs, 1)
	}
	compact := make([]store.JournalEntry, 0, len(tenantOrder)+len(st.Pending))
	for _, tenant := range tenantOrder {
		compact = append(compact, *folded[tenant])
	}

	// Re-admit pending jobs without re-running quota admission: they were
	// admitted by the previous daemon and their Limits are already clamped.
	var recovered []*job
	for _, e := range st.Pending {
		var spec ExecSpec
		if err := json.Unmarshal(e.Spec, &spec); err != nil || spec.ID == "" {
			s.logf("service: journal: dropping unreadable pending job %s: %v", e.ID, err)
			continue
		}
		if spec.Persist {
			// Clear the partial artifacts of the interrupted attempt so
			// re-execution can reserve the run name again.
			if err := s.store.Discard(spec.ID); err != nil {
				s.logf("service: journal: discard partial run %s: %v", spec.ID, err)
			}
		}
		now := time.Now()
		j := &job{
			view: JobView{
				ID:              spec.ID,
				Tenant:          spec.Tenant,
				Workload:        spec.Workload,
				Status:          StatusQueued,
				Persist:         spec.Persist,
				Mode:            modeName(spec.Config.Mode),
				SubmittedUnixMs: now.UnixMilli(),
				EffectiveLimits: spec.Config.Limits,
			},
			spec:        spec,
			recovered:   true,
			submittedAt: now,
		}
		ts := s.tenants.get(spec.Tenant)
		ts.active++
		ts.submitted++
		s.jobs[spec.ID] = j
		s.order = append(s.order, spec.ID)
		s.queued++
		s.recovering++
		compact = append(compact, e)
		recovered = append(recovered, j)
	}

	if err := s.journal.Compact(compact); err != nil {
		return fmt.Errorf("service: compact journal: %w", err)
	}
	if n := len(recovered); n > 0 {
		s.logf("service: journal: recovering %d pending job(s), %d terminal charge(s) re-applied", n, len(st.Terminal))
	}
	for _, j := range recovered {
		j := j
		if err := s.pool.TrySubmit(func() { s.execute(j) }); err != nil {
			// Never lose a recovered job to queue pressure: run it off-pool.
			go s.execute(j)
		}
	}
	return nil
}

func tenantOr(t string) string {
	if t == "" {
		return "default"
	}
	return t
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Store exposes the service's run store (read-side tooling, tests).
func (s *Service) Store() *store.Store { return s.store }

// Submit validates, quota-checks, and enqueues one job. The returned view
// is the job's admission snapshot (status "queued"). Rejections are typed:
// *InvalidJobError (bad request), *QuotaError and *OverloadError
// (capacity), *DrainingError (lifecycle), *faultinject.Fault (armed intake
// point).
func (s *Service) Submit(req SubmitRequest) (*JobView, error) {
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	if !tenantRE.MatchString(tenant) {
		return nil, &InvalidJobError{Reason: fmt.Sprintf("bad tenant name %q", tenant)}
	}
	cfg, persist, err := buildConfig(req.Config)
	if err != nil {
		return nil, err
	}
	if _, err := compiler.CompileSource(req.Program); err != nil {
		return nil, &InvalidJobError{Reason: fmt.Sprintf("program does not compile: %v", err)}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.tenants.get(tenant).rejected++
		return nil, &DrainingError{}
	}
	if err := s.plan.Point(faultinject.PointServiceIntake).Err("intake " + tenant); err != nil {
		s.tenants.get(tenant).rejected++
		return nil, err
	}
	ts := s.tenants.get(tenant)
	if err := ts.admit(tenant); err != nil {
		ts.rejected++
		return nil, err
	}
	cfg.Limits = ts.clampLimits(cfg.Limits)

	s.seq++
	id := fmt.Sprintf("j%d-%06d", s.epoch, s.seq)
	now := time.Now()
	spec := ExecSpec{
		ID:         id,
		Tenant:     tenant,
		Key:        JobKey(tenant, req.Workload, req.Program, cfg),
		Workload:   req.Workload,
		Program:    req.Program,
		Config:     cfg,
		Persist:    persist,
		NoCompress: req.Config.NoCompress,
	}
	j := &job{
		view: JobView{
			ID:              id,
			Tenant:          tenant,
			Workload:        req.Workload,
			Status:          StatusQueued,
			Persist:         persist,
			Mode:            modeName(cfg.Mode),
			SubmittedUnixMs: now.UnixMilli(),
			EffectiveLimits: cfg.Limits,
		},
		spec:        spec,
		submittedAt: now,
	}
	if err := s.pool.TrySubmit(func() { s.execute(j) }); err != nil {
		ts.active--
		ts.submitted--
		ts.rejected++
		if err == experiments.ErrPoolClosed {
			return nil, &DrainingError{}
		}
		return nil, &OverloadError{Depth: s.pool.QueueCap()}
	}
	// Write-ahead entry: once this lands, a crashed daemon re-executes the
	// job on restart. The append comes after the enqueue so a full queue
	// never leaves a stale journal entry; the window where a crash loses a
	// queued-but-unjournaled job closes before the client sees an ack.
	s.appendJournal(store.JournalEntry{
		Op: store.JournalEnqueue, ID: id, Tenant: tenant, Key: spec.Key,
		Workload: req.Workload, Persist: persist, Spec: marshalSpec(spec),
	})
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.queued++
	s.publishLocked(j, Event{Type: "status", Status: StatusQueued})
	v := j.view
	return &v, nil
}

// marshalSpec serializes a spec for its journal entry.
func marshalSpec(spec ExecSpec) json.RawMessage {
	data, err := json.Marshal(spec)
	if err != nil {
		return nil
	}
	return data
}

// appendJournal appends a write-ahead entry, absorbing (and loudly
// logging) persistent journal failures: durability degrades before
// availability does — the daemon keeps serving on a dead journal disk.
func (s *Service) appendJournal(e store.JournalEntry) {
	if err := s.journal.Append(e); err != nil {
		s.logf("service: journal append %s %s: %v", e.Op, e.ID, err)
	}
}

// buildConfig maps a JobConfig to an algoprof.Config and decides whether
// the job persists (events mode) or returns a profile only (paths mode).
func buildConfig(jc JobConfig) (algoprof.Config, bool, error) {
	cfg := algoprof.Config{
		Seed:        jc.Seed,
		Input:       jc.Input,
		SampleEvery: jc.SampleEvery,
		Verify:      jc.Verify,
		Backends:    jc.AllBackends,
		Limits: algoprof.Limits{
			MaxEvents:     jc.MaxEvents,
			MaxLiveBytes:  jc.MaxLiveBytes,
			MaxTraceBytes: jc.MaxTraceBytes,
			Deadline:      time.Duration(jc.DeadlineMs) * time.Millisecond,
		},
	}
	switch jc.Mode {
	case "", algoprof.ModeEvents:
		cfg.Mode = algoprof.ModeEvents
		return cfg, true, nil
	case algoprof.ModePaths:
		// The trace format carries the exact event stream; path counters
		// elide precisely the records replay needs, so paths-mode jobs
		// are profile-only (documented in docs/SERVICE.md). The
		// comparison profilers need events mode, as recording does.
		if jc.AllBackends {
			return cfg, false, &InvalidJobError{Reason: "all_backends requires events mode"}
		}
		cfg.Mode = algoprof.ModePaths
		return cfg, false, nil
	}
	return cfg, false, &InvalidJobError{Reason: fmt.Sprintf("unknown mode %q", jc.Mode)}
}

func modeName(mode string) string {
	if mode == "" {
		return algoprof.ModeEvents
	}
	return mode
}

// execute runs one admitted job on a pool worker and lands it in a
// terminal status. It never lets the job vanish: every path out of here
// goes through finish().
func (s *Service) execute(j *job) {
	s.mu.Lock()
	if s.forceDrain {
		// The queue is being torn down: accepted-but-unstarted work fails
		// typed rather than silently evaporating.
		s.queued--
		s.finishLocked(j, nil, &DrainingError{}, "draining")
		s.mu.Unlock()
		return
	}
	now := time.Now()
	j.startedAt = now
	j.view.Status = StatusRunning
	j.view.QueueMs = now.Sub(j.submittedAt).Milliseconds()
	s.queued--
	s.running++
	s.tenants.get(j.view.Tenant).running++
	s.publishLocked(j, Event{Type: "status", Status: StatusRunning})
	ctx := s.runCtx
	s.mu.Unlock()

	if err := s.plan.Point(faultinject.PointServicePersist).Err("persist " + j.view.ID); err != nil {
		s.mu.Lock()
		s.finishLocked(j, nil, err, "persist")
		s.mu.Unlock()
		return
	}

	out, err := s.exec.Execute(ctx, j.spec, func(instructions uint64) { s.progress(j, instructions) })

	s.mu.Lock()
	s.finishLocked(j, out, err, "")
	s.mu.Unlock()
}

// progress publishes a heartbeat.
func (s *Service) progress(j *job, instructions uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.view.Status != StatusRunning {
		return
	}
	s.publishLocked(j, Event{
		Type:         "progress",
		Instructions: instructions,
		ElapsedMs:    time.Since(j.startedAt).Milliseconds(),
	})
}

// finishLocked lands a job in its terminal status, charges quotas,
// journals the terminal entry, publishes the result event, and closes the
// job's subscriber channels. Caller holds s.mu. kind overrides the
// error-kind derivation when set.
func (s *Service) finishLocked(j *job, out *ExecOutcome, err error, kind string) {
	wasRunning := j.view.Status == StatusRunning
	ts := s.tenants.get(j.view.Tenant)

	switch {
	case err != nil:
		j.view.Status = StatusFailed
		j.view.Error = err.Error()
		j.view.ErrorKind = kind
		class := faultinject.ClassOf(err)
		if j.view.ErrorKind == "" {
			switch {
			case isCancel(err):
				j.view.ErrorKind = "cancelled"
				class = faultinject.Resource
			case class != faultinject.Unknown:
				j.view.ErrorKind = class.String()
			default:
				j.view.ErrorKind = "internal"
			}
		} else if j.view.ErrorKind == "draining" || j.view.ErrorKind == "cancelled" {
			class = faultinject.Resource
		}
		j.view.ErrorClass = class.String()
		s.failCount++
	case out != nil && out.Degraded:
		j.view.Status = StatusDegraded
		s.degCount++
	default:
		j.view.Status = StatusOK
		s.okCount++
	}
	s.completed++

	if out != nil {
		j.view.Profile = out.ProfileJSON
		j.view.Instructions = out.Instructions
		j.view.Events = out.Events
		j.view.TraceBytes = out.TraceBytes
		j.view.Degraded = out.Degraded
		j.view.DegradedReasons = out.DegradedReasons
		j.view.Backends = out.Backends
		j.view.Worker = out.Worker
		j.view.DispatchAttempts = out.DispatchAttempts
	}
	ts.charge(j.view.Events, j.view.TraceBytes)

	if wasRunning {
		s.running--
		ts.running--
		j.view.RunMs = time.Since(j.startedAt).Milliseconds()
	}
	ts.active--
	if j.recovered {
		s.recovering--
	}

	// Terminal entry: a restart must not re-execute this job, and must
	// re-apply exactly these charges.
	s.appendJournal(store.JournalEntry{
		Op: store.JournalTerminal, ID: j.view.ID, Tenant: j.view.Tenant, Key: j.spec.Key,
		Status: string(j.view.Status), Error: j.view.Error, ErrorKind: j.view.ErrorKind,
		ErrorClass: j.view.ErrorClass, Events: j.view.Events, TraceBytes: j.view.TraceBytes,
	})

	v := j.view
	s.publishLocked(j, Event{Type: "result", Status: v.Status, Result: &v})
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
}

// isCancel reports whether err stems from context cancellation or a
// deadline — drain/force-stop outcomes that classify as Resource.
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// publishLocked fans an event to the job's subscribers. Sends never block
// the service: a slow subscriber drops heartbeats, and the terminal result
// is recovered by the stream handler from the job table when its channel
// closes. Caller holds s.mu.
func (s *Service) publishLocked(j *job, ev Event) {
	if len(j.subs) == 0 {
		return
	}
	ev.Job = j.view.ID
	ev.TimeUnixMs = time.Now().UnixMilli()
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// Subscribe attaches to a job's event stream. For a terminal job the
// channel delivers the result event and closes immediately. The returned
// cancel is idempotent and must be called when the subscriber goes away.
func (s *Service) Subscribe(id string) (<-chan Event, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, nil, fmt.Errorf("service: no job %q", id)
	}
	if j.view.Status.Terminal() {
		ch := make(chan Event, 1)
		v := j.view
		ch <- Event{Type: "result", Job: id, TimeUnixMs: time.Now().UnixMilli(), Status: v.Status, Result: &v}
		close(ch)
		return ch, func() {}, nil
	}
	ch := make(chan Event, 32)
	j.subs = append(j.subs, ch)
	cancel := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for i, c := range j.subs {
			if c == ch {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				close(ch)
				break
			}
		}
	}
	return ch, cancel, nil
}

// Job returns a job's current view.
func (s *Service) Job(id string) (*JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	v := j.view
	return &v, true
}

// Jobs lists job views in submission order, optionally scoped to a tenant.
func (s *Service) Jobs(tenant string) []*JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*JobView
	for _, id := range s.order {
		j := s.jobs[id]
		if tenant != "" && j.view.Tenant != tenant {
			continue
		}
		v := j.view
		out = append(out, &v)
	}
	return out
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Queued:     s.queued,
		Running:    s.running,
		Completed:  s.completed,
		OK:         s.okCount,
		Degraded:   s.degCount,
		Failed:     s.failCount,
		Draining:   s.draining,
		Recovering: s.recovering,
		Workers:    s.pool.Workers(),
		QueueCap:   s.pool.QueueCap(),
		Tenants:    s.tenants.snapshot(),
	}
}

// Draining reports whether a drain has begun.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Ready reports whether the service accepts and promptly serves new work:
// false while draining and while journal-recovered jobs are still
// re-executing after a restart. Liveness (the process is up and handling
// requests) is a separate, weaker property — see /v1/healthz vs
// /v1/readyz.
func (s *Service) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining && s.recovering == 0
}

// Drain shuts the service down without losing a job. Intake closes
// immediately (new submissions fail with *DrainingError). ctx bounds the
// graceful phase: until it expires, queued and running jobs finish
// normally. Past it, running jobs are cancelled — the VM halts cleanly and
// salvaged partial profiles come back as degraded results — and jobs still
// queued fail with the typed draining error. Drain returns once every job
// is terminal and the pool's workers have exited; it is idempotent, and
// concurrent callers all block until the same drain completes.
func (s *Service) Drain(ctx context.Context) error {
	go s.drainOnce.Do(func() { s.drain(ctx) })
	<-s.drainDone
	return nil
}

func (s *Service) drain(ctx context.Context) {
	defer close(s.drainDone)
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	// Graceful phase: wait for the backlog to finish on its own.
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		idle := s.queued == 0 && s.running == 0
		s.mu.Unlock()
		if idle {
			break
		}
		select {
		case <-ctx.Done():
			// Force phase: cancel in-flight VMs (they halt within a few
			// thousand instructions and salvage partial profiles) and flag
			// queued jobs to fail typed on pickup.
			s.mu.Lock()
			s.forceDrain = true
			s.mu.Unlock()
			s.runCancel()
			for {
				s.mu.Lock()
				idle := s.queued == 0 && s.running == 0
				s.mu.Unlock()
				if idle {
					break
				}
				<-tick.C
			}
			goto drained
		case <-tick.C:
		}
	}
drained:
	// All jobs are terminal; the pool drains instantly.
	if err := s.pool.Shutdown(context.Background()); err != nil {
		s.logf("service: pool shutdown: %v", err)
	}
	s.runCancel()
	if err := s.journal.Close(); err != nil {
		s.logf("service: journal close: %v", err)
	}
}

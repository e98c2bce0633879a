package dispatch

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"algoprof"
	"algoprof/internal/faultinject"
	"algoprof/internal/service"
	"algoprof/internal/trace/store"
)

// WorkerLocal is the Worker name reported for jobs that executed through
// the local fallback executor.
const WorkerLocal = "local"

// LeaseExpiredError reports a revoked lease: the worker streamed no event
// within the TTL, so the dispatcher cancelled the attempt and will
// re-dispatch. Transient — the job itself is fine.
type LeaseExpiredError struct {
	Worker string
	TTL    time.Duration
}

// Error implements error.
func (e *LeaseExpiredError) Error() string {
	return fmt.Sprintf("dispatch: lease expired: worker %s silent for %v", e.Worker, e.TTL)
}

// FaultClass implements faultinject.Classifier.
func (*LeaseExpiredError) FaultClass() faultinject.FaultClass { return faultinject.Transient }

// CorruptResultError reports a response that arrived but cannot be
// trusted: an unparseable stream, a digest mismatch, a malformed payload.
// Corruption-classed — the worker is quarantined, the bytes are never
// ingested, and the job re-executes elsewhere.
type CorruptResultError struct {
	Worker string
	Reason string
}

// Error implements error.
func (e *CorruptResultError) Error() string {
	return fmt.Sprintf("dispatch: corrupt result from worker %s: %s", e.Worker, e.Reason)
}

// FaultClass implements faultinject.Classifier.
func (*CorruptResultError) FaultClass() faultinject.FaultClass { return faultinject.Corruption }

// NoWorkersError reports that no worker was available (all quarantined or
// breaker-open) and no local fallback is configured. Resource-classed
// backpressure.
type NoWorkersError struct{}

// Error implements error.
func (*NoWorkersError) Error() string {
	return "dispatch: no workers available and no local fallback"
}

// FaultClass implements faultinject.Classifier.
func (*NoWorkersError) FaultClass() faultinject.FaultClass { return faultinject.Resource }

// RemoteError is a job-level failure reported by the worker that ran it —
// the remote counterpart of the error RunJob would have returned locally.
// It carries the remote fault class through the wire so the daemon's
// error typing is location-independent.
type RemoteError struct {
	Worker string
	Msg    string
	Class  faultinject.FaultClass
}

// Error implements error.
func (e *RemoteError) Error() string { return e.Msg }

// FaultClass implements faultinject.Classifier.
func (e *RemoteError) FaultClass() faultinject.FaultClass { return e.Class }

// Config parameterizes a Dispatcher.
type Config struct {
	// Workers are the worker base URLs (e.g. "http://10.0.0.7:7071").
	Workers []string
	// LeaseTTL is the per-job lease: a worker that streams no event for
	// this long is revoked and the job re-dispatched (0 = DefaultLeaseTTL).
	LeaseTTL time.Duration
	// Retry is the cross-worker retry budget for transient failures; the
	// zero value uses DefaultDispatchRetry. Attempts counts total
	// dispatches of one job, Delay spaces them with jittered exponential
	// backoff desynchronized per job key.
	Retry faultinject.RetryPolicy
	// BreakerThreshold consecutive transport failures open a worker's
	// circuit breaker (0 = 3); BreakerCooldown is how long it stays open
	// (0 = 250ms).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Transport carries worker HTTP traffic; nil uses
	// http.DefaultTransport. Chaos schedules pass a
	// faultinject.Plan.Transport here.
	Transport http.RoundTripper
	// Fallback, when non-nil, executes jobs locally once the dispatch
	// budget is exhausted or no worker is available — degraded capacity
	// instead of dropped jobs. Normally service's local executor.
	Fallback service.Executor
	// FallbackLimits clamp (never loosen) a job's limits when it falls
	// back locally, protecting the daemon process from absorbing the whole
	// fleet's load at full size.
	FallbackLimits algoprof.Limits
	// Store is the daemon's run store; persist-job artifacts shipped back
	// by workers ingest here.
	Store *store.Store
	// Logf receives operational lines (nil = silent).
	Logf func(string, ...any)
}

// DefaultDispatchRetry is the dispatch-layer retry budget: up to four
// dispatch attempts with a doubling, half-jittered backoff between them.
var DefaultDispatchRetry = faultinject.RetryPolicy{Attempts: 4, Backoff: 5 * time.Millisecond, Jitter: 0.5}

// workerState is one worker's dispatch-side state.
type workerState struct {
	url string
	br  *breaker

	quarantined atomic.Bool
	inflight    atomic.Int64
	dispatched  atomic.Int64
	ok          atomic.Int64
	failures    atomic.Int64
}

// Stats is the dispatcher's counter snapshot.
type Stats struct {
	// Dispatched counts exec attempts sent to workers; Retries counts the
	// attempts after each job's first.
	Dispatched int64 `json:"dispatched"`
	Retries    int64 `json:"retries"`
	// RemoteOK counts jobs whose final result came from a worker.
	RemoteOK int64 `json:"remote_ok"`
	// LeaseRevocations counts leases the dispatcher revoked for missed
	// heartbeats.
	LeaseRevocations int64 `json:"lease_revocations"`
	// CorruptResults counts responses rejected by digest/parse checks;
	// Quarantines counts workers permanently excluded for them.
	CorruptResults int64 `json:"corrupt_results"`
	Quarantines    int64 `json:"quarantines"`
	// BreakerOpens sums every worker breaker's open transitions.
	BreakerOpens int64 `json:"breaker_opens"`
	// Fallbacks counts jobs that executed on the local fallback executor.
	Fallbacks int64 `json:"fallbacks"`

	Workers []WorkerStats `json:"workers"`
}

// WorkerStats is one worker's snapshot.
type WorkerStats struct {
	URL         string `json:"url"`
	Inflight    int64  `json:"inflight"`
	Dispatched  int64  `json:"dispatched"`
	OK          int64  `json:"ok"`
	Failures    int64  `json:"failures"`
	Quarantined bool   `json:"quarantined"`
	BreakerOpen bool   `json:"breaker_open"`
}

// Dispatcher implements service.Executor over a fleet of remote workers.
// Safe for concurrent use by all of the daemon's pool workers.
type Dispatcher struct {
	cfg     Config
	client  *http.Client
	workers []*workerState
	logf    func(string, ...any)

	rr               atomic.Uint64
	retries          atomic.Int64
	remoteOK         atomic.Int64
	leaseRevocations atomic.Int64
	corruptResults   atomic.Int64
	quarantines      atomic.Int64
	fallbacks        atomic.Int64
}

// New builds a Dispatcher. The zero-ish Config is made serviceable with
// defaults; Store is required when any job persists.
func New(cfg Config) *Dispatcher {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.Retry.Attempts <= 0 {
		cfg.Retry = DefaultDispatchRetry
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 250 * time.Millisecond
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	d := &Dispatcher{
		cfg:    cfg,
		client: &http.Client{Transport: cfg.Transport},
		logf:   logf,
	}
	for _, u := range cfg.Workers {
		d.workers = append(d.workers, &workerState{
			url: u,
			br:  newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		})
	}
	return d
}

// MakeExecutor returns the service.Config.MakeExecutor hook that wires
// this dispatcher behind the daemon's executor seam: the daemon's local
// executor becomes the fallback (unless the Config set one explicitly)
// and the daemon's store receives ingested artifacts.
func MakeExecutor(cfg Config) func(local service.Executor, st *store.Store) service.Executor {
	return func(local service.Executor, st *store.Store) service.Executor {
		if cfg.Fallback == nil {
			cfg.Fallback = local
		}
		if cfg.Store == nil {
			cfg.Store = st
		}
		return New(cfg)
	}
}

// Stats snapshots the dispatcher's counters.
func (d *Dispatcher) Stats() Stats {
	st := Stats{
		Retries:          d.retries.Load(),
		RemoteOK:         d.remoteOK.Load(),
		LeaseRevocations: d.leaseRevocations.Load(),
		CorruptResults:   d.corruptResults.Load(),
		Quarantines:      d.quarantines.Load(),
		Fallbacks:        d.fallbacks.Load(),
	}
	for _, w := range d.workers {
		st.Dispatched += w.dispatched.Load()
		st.BreakerOpens += w.br.openCount()
		st.Workers = append(st.Workers, WorkerStats{
			URL:         w.url,
			Inflight:    w.inflight.Load(),
			Dispatched:  w.dispatched.Load(),
			OK:          w.ok.Load(),
			Failures:    w.failures.Load(),
			Quarantined: w.quarantined.Load(),
			BreakerOpen: w.br.open(),
		})
	}
	return st
}

// Execute implements service.Executor: dispatch the job to a worker,
// retrying transient failures across the fleet with jittered backoff, and
// fall back to local execution rather than ever dropping the job.
func (d *Dispatcher) Execute(ctx context.Context, spec service.ExecSpec, progress func(uint64)) (*service.ExecOutcome, error) {
	rp := d.cfg.Retry
	// Desynchronize backoff streams across jobs: two jobs that hit the
	// same transient fault at the same moment must not retry in lockstep.
	rp.Seed ^= fnv64(spec.Key)

	var lastErr error
	attempts := 0
	for try := 0; try < rp.Attempts; try++ {
		w := d.pick()
		if w == nil {
			break
		}
		attempts++
		if attempts > 1 {
			d.retries.Add(1)
		}
		out, err := d.execOn(ctx, w, spec, progress)
		w.inflight.Add(-1)
		if err == nil {
			w.br.success()
			w.ok.Add(1)
			d.remoteOK.Add(1)
			out.Worker = w.url
			out.DispatchAttempts = attempts
			return out, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			// The daemon is force-draining or the run context died: stop
			// dispatching, surface the cancellation.
			return nil, err
		}
		switch faultinject.ClassOf(err) {
		case faultinject.Corruption:
			d.quarantine(w, spec.ID, err)
		case faultinject.Transient:
			w.failures.Add(1)
			w.br.failure()
			d.logf("dispatch: job %s attempt %d on %s failed transient: %v", spec.ID, attempts, w.url, err)
		default:
			var re *RemoteError
			if errors.As(err, &re) {
				// The worker is healthy; the job itself failed with a
				// deterministic typed error. Re-running it anywhere would
				// reproduce the same failure — this IS the job's result.
				w.br.success()
				if out != nil {
					out.Worker = w.url
					out.DispatchAttempts = attempts
				}
				return out, err
			}
			w.failures.Add(1)
			w.br.failure()
			d.logf("dispatch: job %s attempt %d on %s failed: %v", spec.ID, attempts, w.url, err)
		}
		if try < rp.Attempts-1 {
			sleepCtx(ctx, rp.Delay(try))
		}
	}

	// Dispatch budget exhausted or no worker available: degrade to local
	// execution under clamped limits. The job never drops.
	if d.cfg.Fallback != nil {
		d.fallbacks.Add(1)
		if lastErr != nil {
			d.logf("dispatch: job %s falling back to local execution: %v", spec.ID, lastErr)
		}
		fspec := spec
		fspec.Config.Limits = clampLimits(spec.Config.Limits, d.cfg.FallbackLimits)
		out, err := d.cfg.Fallback.Execute(ctx, fspec, progress)
		if out != nil {
			out.Worker = WorkerLocal
			out.DispatchAttempts = attempts
		}
		return out, err
	}
	if lastErr == nil {
		lastErr = &NoWorkersError{}
	}
	return nil, lastErr
}

// pick selects the least-loaded available worker, rotating the scan start
// so ties spread round-robin. It claims an inflight slot on the winner.
func (d *Dispatcher) pick() *workerState {
	n := len(d.workers)
	if n == 0 {
		return nil
	}
	start := d.rr.Add(1) - 1
	var best *workerState
	var bestLoad int64
	for i := 0; i < n; i++ {
		w := d.workers[(start+uint64(i))%uint64(n)]
		if w.quarantined.Load() || !w.br.allow() {
			continue
		}
		load := w.inflight.Load()
		if best == nil || load < bestLoad {
			best, bestLoad = w, load
		}
	}
	if best != nil {
		best.inflight.Add(1)
		best.dispatched.Add(1)
	}
	return best
}

// quarantine permanently excludes a worker that produced untrustworthy
// bytes.
func (d *Dispatcher) quarantine(w *workerState, jobID string, err error) {
	w.failures.Add(1)
	d.corruptResults.Add(1)
	if !w.quarantined.Swap(true) {
		d.quarantines.Add(1)
		d.logf("dispatch: quarantining worker %s (job %s): %v", w.url, jobID, err)
	}
}

// execOn runs one dispatch attempt against one worker, enforcing the
// lease: any TTL-long silence on the response stream cancels the request
// (revoking the job on the worker via its request context) and returns a
// transient LeaseExpiredError.
func (d *Dispatcher) execOn(ctx context.Context, w *workerState, spec service.ExecSpec, progress func(uint64)) (*service.ExecOutcome, error) {
	body, err := json.Marshal(execRequest{Spec: spec, LeaseTTLMs: d.cfg.LeaseTTL.Milliseconds()})
	if err != nil {
		return nil, fmt.Errorf("dispatch: marshal exec request: %w", err)
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var expired atomic.Bool
	lease := time.AfterFunc(d.cfg.LeaseTTL, func() {
		expired.Store(true)
		cancel()
	})
	defer lease.Stop()
	revoked := func() error {
		d.leaseRevocations.Add(1)
		return &LeaseExpiredError{Worker: w.url, TTL: d.cfg.LeaseTTL}
	}

	req, err := http.NewRequestWithContext(rctx, http.MethodPost, w.url+"/w/v1/exec", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("dispatch: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		if expired.Load() {
			return nil, revoked()
		}
		if ctx.Err() != nil {
			return nil, err
		}
		if faultinject.ClassOf(err) != faultinject.Unknown {
			return nil, err
		}
		// Real connection failures (refused, reset, DNS) classify exactly
		// like injected ones: transient transport faults.
		return nil, faultinject.NetFault(faultinject.PointNetDial, "exec "+w.url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		reason := fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
			return nil, faultinject.NetFault(faultinject.PointNetDial, "exec "+w.url+": "+reason, nil)
		}
		// A 4xx from a trusted worker means the request bytes it saw were
		// not the request bytes we sent.
		d.corruptResults.Add(1)
		return nil, &CorruptResultError{Worker: w.url, Reason: reason}
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		lease.Reset(d.cfg.LeaseTTL)
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev wireEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			d.corruptResults.Add(1)
			return nil, &CorruptResultError{Worker: w.url, Reason: "unparseable stream event: " + err.Error()}
		}
		switch ev.Type {
		case wireHeartbeat:
			if progress != nil && ev.Instructions > 0 {
				progress(ev.Instructions)
			}
		case wireResultEvent:
			return d.finishResult(w, spec, ev.Result)
		default:
			d.corruptResults.Add(1)
			return nil, &CorruptResultError{Worker: w.url, Reason: fmt.Sprintf("unknown stream event %q", ev.Type)}
		}
	}
	// The stream ended without a result: severed mid-job.
	if expired.Load() {
		return nil, revoked()
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	err = sc.Err()
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return nil, faultinject.NetFault(faultinject.PointNetDrop, "result stream from "+w.url, err)
}

// finishResult validates a result payload and turns it into the job's
// outcome: digest verification first, then remote-error reconstruction,
// then artifact ingestion for persist jobs.
func (d *Dispatcher) finishResult(w *workerState, spec service.ExecSpec, res *resultPayload) (*service.ExecOutcome, error) {
	if res == nil {
		d.corruptResults.Add(1)
		return nil, &CorruptResultError{Worker: w.url, Reason: "result event without payload"}
	}
	if got := res.computeDigest(); res.Digest == "" || got != res.Digest {
		d.corruptResults.Add(1)
		return nil, &CorruptResultError{
			Worker: w.url,
			Reason: fmt.Sprintf("result digest mismatch (got %.12s, want %.12s)", got, res.Digest),
		}
	}
	if res.Error != "" {
		out := res.Outcome
		if out != nil {
			// The daemon ingested nothing for a failed job; charge no
			// trace bytes regardless of what landed on worker scratch.
			out.TraceBytes = 0
		}
		return out, &RemoteError{Worker: w.url, Msg: res.Error, Class: faultinject.ParseClass(res.ErrorClass)}
	}
	out := res.Outcome
	if out == nil {
		d.corruptResults.Add(1)
		return nil, &CorruptResultError{Worker: w.url, Reason: "ok result without outcome"}
	}
	if spec.Persist {
		if res.Files[store.ManifestName] == nil {
			// A successful persist run without artifacts is not corruption
			// (the digest checked out) — the worker salvaged nothing
			// shippable. Re-execute; the fallback records locally if the
			// whole fleet produces nothing.
			return nil, faultinject.NetFault(faultinject.PointNetDrop,
				"persist result without artifacts from "+w.url, io.ErrUnexpectedEOF)
		}
		n, err := d.cfg.Store.IngestRun(spec.ID, res.Files)
		if err != nil {
			if faultinject.ClassOf(err) == faultinject.Corruption {
				d.corruptResults.Add(1)
			}
			return nil, err
		}
		out.TraceBytes = n
	} else {
		out.TraceBytes = 0
	}
	return out, nil
}

// clampLimits tightens cur by cap: every cap field that is set becomes an
// upper bound on the corresponding limit (unlimited cur fields adopt the
// cap). Mirrors the quota clamp — a fallback never loosens anything.
func clampLimits(cur, cap algoprof.Limits) algoprof.Limits {
	if cap.MaxEvents > 0 && (cur.MaxEvents == 0 || cur.MaxEvents > cap.MaxEvents) {
		cur.MaxEvents = cap.MaxEvents
	}
	if cap.MaxLiveBytes > 0 && (cur.MaxLiveBytes == 0 || cur.MaxLiveBytes > cap.MaxLiveBytes) {
		cur.MaxLiveBytes = cap.MaxLiveBytes
	}
	if cap.MaxTraceBytes > 0 && (cur.MaxTraceBytes == 0 || cur.MaxTraceBytes > cap.MaxTraceBytes) {
		cur.MaxTraceBytes = cap.MaxTraceBytes
	}
	if cap.Deadline > 0 && (cur.Deadline == 0 || cur.Deadline > cap.Deadline) {
		cur.Deadline = cap.Deadline
	}
	return cur
}

// sleepCtx sleeps for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// fnv64 is the FNV-1a hash (retry-stream desynchronization per job key).
func fnv64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

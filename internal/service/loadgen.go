package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"algoprof/internal/benchfile"
	"algoprof/internal/faultinject"
	"algoprof/internal/workloads"
)

// LoadConfig parameterizes a load-generation run against a live daemon.
type LoadConfig struct {
	// Addr is the daemon's base URL, e.g. "http://127.0.0.1:7071".
	Addr string
	// Jobs is the total number of jobs to complete (default 1000).
	Jobs int
	// Concurrency is the number of in-flight submissions (default 64).
	Concurrency int
	// Tenants spreads jobs round-robin over this many synthetic tenants
	// "load-0".."load-N-1" (default 4).
	Tenants int
	// Program is the MJ source each job profiles (default: a small
	// running-example sort; callers override for heavier programs).
	Program string
	// DegradeEvery gives every k-th job a tight MaxEvents so the run
	// exercises the deterministic-degradation path (0 disables; default 5).
	DegradeEvery int
	// PathsEvery runs every k-th job in paths mode (profile-only, no
	// persist), mixing persisted and unpersisted work (0 disables;
	// default 7).
	PathsEvery int
	// Retries bounds resubmission attempts for quota/overload rejections
	// (default 50; backpressure is typed, so retrying is the contract).
	Retries int
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// Outcomes tallies a benchmark's jobs by terminal status. Loadgen and
// the distributed benchmark both count with it and gate on its Check.
type Outcomes struct {
	Jobs     int `json:"jobs"`
	OK       int `json:"ok"`
	Degraded int `json:"degraded"`
	Failed   int `json:"failed"`
	// Lost counts jobs that never reached a terminal status.
	Lost int `json:"lost"`
	// Untyped counts failed jobs that TypedFailure rejects.
	Untyped int `json:"untyped_failures"`
}

// TypedFailure reports whether a failed job's error is typed: it names a
// kind, and its class is one faultinject parses. Outcomes.Add and the
// chaos sweeps both judge failures by it.
func TypedFailure(kind, class string) bool {
	return kind != "" && faultinject.ParseClass(class) != faultinject.Unknown
}

// Add counts one job by its status and, for a failure, its error kind
// and class. A status that is not terminal counts as lost.
func (o *Outcomes) Add(status JobStatus, kind, class string) {
	switch status {
	case StatusOK:
		o.OK++
	case StatusDegraded:
		o.Degraded++
	case StatusFailed:
		o.Failed++
		if !TypedFailure(kind, class) {
			o.Untyped++
		}
	default:
		o.Lost++
	}
}

// Check returns the tally's violations, empty when it passes: every job
// terminated ok, degraded or typed-failed, the counts sum to the jobs,
// and at least one job succeeded.
func (o *Outcomes) Check() []string {
	var bad []string
	if o.Lost != 0 {
		bad = append(bad, fmt.Sprintf("%d jobs lost (every job must terminate ok/degraded/typed-failed)", o.Lost))
	}
	if o.Untyped != 0 {
		bad = append(bad, fmt.Sprintf("%d failed jobs without a typed error kind/class", o.Untyped))
	}
	if got := o.OK + o.Degraded + o.Failed + o.Lost; got != o.Jobs {
		bad = append(bad, fmt.Sprintf("status counts sum to %d, want %d", got, o.Jobs))
	}
	if o.OK == 0 {
		bad = append(bad, "no job succeeded")
	}
	return bad
}

// LoadReport is the load run's result — what algoprofd loadgen writes to
// BENCH_service.json.
type LoadReport struct {
	Outcomes
	Concurrency int `json:"concurrency"`
	Tenants     int `json:"tenants"`

	// RetriedSubmits counts typed quota/overload rejections that were
	// retried (backpressure working as designed, not an error). A retried
	// job still counts exactly once in Jobs and JobsPerSec — retries are
	// attempts, not extra work completed.
	RetriedSubmits int64 `json:"retried_submits"`
	// SubmitAttempts is the total number of submission attempts across all
	// jobs (first tries plus retries): Jobs + RetriedSubmits when nothing
	// is lost. MaxSubmitAttempts is the worst single job's attempt count —
	// how deep backpressure pushed one submitter.
	SubmitAttempts    int64 `json:"submit_attempts"`
	MaxSubmitAttempts int64 `json:"max_submit_attempts"`

	JobsPerSec float64 `json:"jobs_per_sec"`

	// LatencyMs summarizes end-to-end latency, submit to terminal
	// response.
	LatencyMs benchfile.Summary `json:"latency_ms"`

	// MaxQueueDepth is the deepest /v1/stats queue observed while the
	// run was in flight.
	MaxQueueDepth int `json:"max_queue_depth"`
}

// jobResult is one job's client-side outcome.
type jobResult struct {
	status   JobStatus
	errKind  string
	errClass string
	latency  time.Duration
	lost     bool
	// attempts is how many submissions this job took (1 = accepted first
	// try); attempts-1 of them were typed-backpressure retries.
	attempts int64
}

// RunLoad hammers the daemon at cfg.Addr and accounts for every job: each
// either reaches a terminal status (ok / degraded / typed-failed) or is
// counted lost. It returns an error only when the daemon is unreachable —
// job-level failures land in the report for the gate to judge.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	if cfg.Jobs <= 0 {
		cfg.Jobs = 1000
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 64
	}
	if cfg.Tenants <= 0 {
		cfg.Tenants = 4
	}
	if cfg.Program == "" {
		cfg.Program = defaultLoadProgram
	}
	if cfg.DegradeEvery == 0 {
		cfg.DegradeEvery = 5
	}
	if cfg.PathsEvery == 0 {
		cfg.PathsEvery = 7
	}
	if cfg.Retries == 0 {
		cfg.Retries = 50
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	client := &http.Client{Timeout: 5 * time.Minute}

	// Fail fast when nothing is listening — a connection error per job
	// would masquerade as 100% lost.
	if resp, err := client.Get(cfg.Addr + "/v1/healthz"); err != nil {
		return nil, fmt.Errorf("loadgen: daemon unreachable at %s: %v", cfg.Addr, err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// Queue-depth sampler.
	var maxQueue atomic.Int64
	sampleCtx, stopSampling := context.WithCancel(ctx)
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-sampleCtx.Done():
				return
			case <-tick.C:
				resp, err := client.Get(cfg.Addr + "/v1/stats")
				if err != nil {
					continue
				}
				var st Stats
				json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if d := int64(st.Queued); d > maxQueue.Load() {
					maxQueue.Store(d)
				}
			}
		}
	}()

	start := time.Now()
	results := make([]jobResult, cfg.Jobs)
	indices := make(chan int)
	var wg sync.WaitGroup
	var done atomic.Int64
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				results[i] = runOneLoadJob(ctx, client, cfg, i)
				// Count completion here — not at dispatch — so the progress
				// log reports jobs actually terminal, not merely handed to a
				// submitter goroutine.
				done.Add(1)
			}
		}()
	}
	go func() {
		tick := time.NewTicker(2 * time.Second)
		defer tick.Stop()
		for range tick.C {
			n := done.Load()
			if n >= int64(cfg.Jobs) {
				return
			}
			logf("loadgen: %d/%d jobs done", n, cfg.Jobs)
		}
	}()
	for i := 0; i < cfg.Jobs; i++ {
		select {
		case indices <- i:
		case <-ctx.Done():
			break
		}
	}
	close(indices)
	wg.Wait()
	wall := time.Since(start)
	stopSampling()
	samplerWG.Wait()

	rep := &LoadReport{
		Outcomes:      Outcomes{Jobs: cfg.Jobs},
		Concurrency:   cfg.Concurrency,
		Tenants:       cfg.Tenants,
		MaxQueueDepth: int(maxQueue.Load()),
	}
	var lat []float64
	for _, r := range results {
		if r.attempts > 1 {
			rep.RetriedSubmits += r.attempts - 1
		}
		rep.SubmitAttempts += r.attempts
		if r.attempts > rep.MaxSubmitAttempts {
			rep.MaxSubmitAttempts = r.attempts
		}
		if r.lost {
			rep.Lost++
			continue
		}
		lat = append(lat, float64(r.latency.Microseconds())/1000)
		rep.Add(r.status, r.errKind, r.errClass)
	}
	if wall > 0 {
		rep.JobsPerSec = float64(cfg.Jobs-rep.Lost) / wall.Seconds()
	}
	rep.LatencyMs = benchfile.Summarize(lat)
	return rep, nil
}

// runOneLoadJob submits job i with wait=1 and returns its outcome,
// retrying typed capacity rejections with backoff.
func runOneLoadJob(ctx context.Context, client *http.Client, cfg LoadConfig, i int) jobResult {
	req := SubmitRequest{
		Tenant:   fmt.Sprintf("load-%d", i%cfg.Tenants),
		Workload: "loadgen",
		Program:  cfg.Program,
		Config: JobConfig{
			Seed: uint64(i + 1),
		},
	}
	if cfg.DegradeEvery > 0 && i%cfg.DegradeEvery == cfg.DegradeEvery-1 {
		req.Config.MaxEvents = 500
	}
	if cfg.PathsEvery > 0 && i%cfg.PathsEvery == cfg.PathsEvery-1 {
		req.Config.Mode = "paths"
	}
	body, _ := json.Marshal(req)

	start := time.Now()
	var res jobResult
	for attempt := 0; ; attempt++ {
		select {
		case <-ctx.Done():
			res.lost = true
			return res
		default:
		}
		res.attempts++
		resp, err := client.Post(cfg.Addr+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
		if err != nil {
			res.lost = true
			return res
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK, http.StatusAccepted:
			var sr SubmitResponse
			if err := json.Unmarshal(data, &sr); err != nil || len(sr.Jobs) == 0 {
				res.lost = true
				return res
			}
			v := sr.Jobs[0]
			if !v.Status.Terminal() {
				res.lost = true
				return res
			}
			res.status = v.Status
			res.errKind = v.ErrorKind
			res.errClass = v.ErrorClass
			res.latency = time.Since(start)
			return res
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			// Typed backpressure: retry with linear backoff.
			if attempt >= cfg.Retries {
				var ae apiError
				json.Unmarshal(data, &ae)
				res.status = StatusFailed
				res.errKind = ae.Kind
				res.errClass = ae.Class
				res.latency = time.Since(start)
				return res
			}
			time.Sleep(time.Duration(5*(attempt+1)) * time.Millisecond)
		default:
			res.lost = true
			return res
		}
	}
}

// CheckLoadReport gates a load run the way `paper bench -check` gates the
// perf benchmarks: structural invariants always hold, the throughput bar
// applies only against a baseline and only off single-core runners (where
// scheduling noise would make it flaky). It returns the violated
// invariants, empty when the run passes.
func CheckLoadReport(rep, baseline *LoadReport) []string {
	bad := rep.Outcomes.Check()
	if rep.Lost == 0 && rep.SubmitAttempts != int64(rep.Jobs)+rep.RetriedSubmits {
		bad = append(bad, fmt.Sprintf("submit attempts %d != jobs %d + retries %d (retried jobs must count once)",
			rep.SubmitAttempts, rep.Jobs, rep.RetriedSubmits))
	}
	if l := rep.LatencyMs; l.Median > l.Q3 {
		bad = append(bad, fmt.Sprintf("latency median %.1fms > q3 %.1fms", l.Median, l.Q3))
	}
	if baseline != nil && runtime.GOMAXPROCS(0) > 1 && baseline.JobsPerSec > 0 {
		// A generous 4x regression bar.
		if rep.JobsPerSec < baseline.JobsPerSec/4 {
			bad = append(bad, fmt.Sprintf("throughput %.1f jobs/s < baseline %.1f/4", rep.JobsPerSec, baseline.JobsPerSec))
		}
	}
	return bad
}

// defaultLoadProgram is a small running-example sort: enough structure for
// a real profile (an algorithm, a cost fit) while fast enough to run
// thousands of times in CI.
var defaultLoadProgram = workloads.RunningExample(workloads.Random, 32, 8, 1)

// Command algoprofd is the multi-tenant profiling daemon: it accepts MJ
// programs with per-run configurations over HTTP/JSON, queues them on a
// bounded worker pool, enforces per-tenant quotas layered on the
// algoprof.Limits machinery, streams job progress and results as NDJSON,
// and persists every completed events-mode run into a trace store that
// `algoprof verify`, `diff`, and `fleetdiff` read unchanged.
//
// Usage:
//
//	algoprofd serve   [-addr :7071] [-store DIR] [-workers N] [-queue N]
//	                  [-max-active N] [-event-budget N] [-trace-budget N]
//	                  [-deadline-ceiling D] [-drain-timeout D]
//	                  [-remote-workers URL,URL,...] [-lease-ttl D]
//	algoprofd worker  [-addr :7072] [-scratch DIR]
//	algoprofd loadgen [-addr URL] [-jobs N] [-c N] [-tenants N]
//	                  [-out BENCH_service.json] [-check] [-baseline FILE]
//	algoprofd smoke   [-jobs N]
//	algoprofd distbench [-jobs N] [-fleet N] [-out BENCH_dispatch.json]
//	                  [-check]
//
// serve runs until SIGINT/SIGTERM, then drains: intake closes immediately
// (typed 503s), in-flight and queued jobs get -drain-timeout to finish
// normally, and past it running jobs are cancelled — salvaged partial
// profiles come back as degraded results, queued jobs fail typed. No job
// is ever silently dropped.
//
// loadgen hammers a running daemon and writes throughput, the latency
// median, quartiles and tail percentiles, queue depth, and the
// terminal-status accounting to a BENCH_service.json; -check additionally
// gates the run on the structural invariants (0 lost jobs, all failures
// typed) and, off single-core runners, on throughput against -baseline.
//
// smoke is the CI entry point: it boots an in-process daemon on an
// ephemeral port, runs one end-to-end job (submit → stream → verify the
// persisted run → byte-compare against the library API), then a short
// loadgen, and exits non-zero if any step fails.
//
// worker runs the distributed execution agent: a stateless process that
// executes jobs a daemon dispatches to it (POST /w/v1/exec) against a
// scratch store and ships the artifacts back. Point a daemon at a fleet of
// them with serve -remote-workers; see docs/SERVICE.md "Distributed
// operation" for the lease/retry/quarantine semantics.
//
// distbench benchmarks the dispatch layer: an in-process daemon plus a
// worker fleet push a job batch through three legs — 0, 1, and 2 abrupt
// worker crashes mid-batch — and write throughput, the latency median and
// quartiles, and the retry/revocation/fallback counters to
// BENCH_dispatch.json.
// -check gates on the distributed invariant: zero lost jobs, all failures
// typed, in every leg.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"algoprof"
	"algoprof/internal/benchfile"
	"algoprof/internal/dispatch"
	"algoprof/internal/service"
	"algoprof/internal/trace/store"
	"algoprof/internal/workloads"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			cmdServe(os.Args[2:])
			return
		case "worker":
			cmdWorker(os.Args[2:])
			return
		case "loadgen":
			cmdLoadgen(os.Args[2:])
			return
		case "smoke":
			cmdSmoke(os.Args[2:])
			return
		case "distbench":
			cmdDistbench(os.Args[2:])
			return
		}
	}
	fmt.Fprintln(os.Stderr, "usage: algoprofd serve|worker|loadgen|smoke|distbench [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "algoprofd:", err)
	os.Exit(1)
}

func cmdServe(args []string) {
	fs := flag.NewFlagSet("algoprofd serve", flag.ExitOnError)
	addr := fs.String("addr", ":7071", "listen address")
	storeDir := fs.String("store", "traces", "trace store directory")
	workers := fs.Int("workers", 0, "worker pool size (0 = all cores)")
	queue := fs.Int("queue", 256, "job queue depth across all tenants")
	maxActive := fs.Int("max-active", 0, "default per-tenant bound on queued+running jobs (0 = unlimited)")
	eventBudget := fs.Uint64("event-budget", 0, "default per-tenant aggregate event budget (0 = unlimited)")
	traceBudget := fs.Int64("trace-budget", 0, "default per-tenant aggregate trace-byte budget (0 = unlimited)")
	deadlineCeiling := fs.Duration("deadline-ceiling", 0, "default per-tenant per-job deadline ceiling (0 = none)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-drain window after SIGTERM before in-flight jobs are cancelled (salvaged as degraded)")
	remoteWorkers := fs.String("remote-workers", "", "comma-separated worker base URLs (algoprofd worker processes); jobs dispatch to them with local execution as fallback")
	leaseTTL := fs.Duration("lease-ttl", dispatch.DefaultLeaseTTL, "per-job worker lease: a worker silent this long is revoked and the job re-dispatched")
	fs.Parse(args)

	logf := log.New(os.Stderr, "algoprofd: ", log.LstdFlags).Printf
	cfg := service.Config{
		StoreDir:   *storeDir,
		Workers:    *workers,
		QueueDepth: *queue,
		DefaultQuota: service.Quota{
			MaxActive:       *maxActive,
			EventBudget:     *eventBudget,
			TraceByteBudget: *traceBudget,
			DeadlineCeiling: *deadlineCeiling,
		},
		Logf: logf,
	}
	if *remoteWorkers != "" {
		urls := strings.Split(*remoteWorkers, ",")
		for i := range urls {
			urls[i] = strings.TrimRight(strings.TrimSpace(urls[i]), "/")
		}
		cfg.MakeExecutor = dispatch.MakeExecutor(dispatch.Config{
			Workers:  urls,
			LeaseTTL: *leaseTTL,
			Logf:     logf,
		})
		logf("dispatching to %d remote worker(s): %s", len(urls), strings.Join(urls, ", "))
	}
	svc, err := service.New(cfg)
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Handler: svc.Handler()}
	logf("serving on %s, store %s, %d workers, queue %d",
		ln.Addr(), *storeDir, runtime.GOMAXPROCS(0), *queue)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		logf("caught %s, draining (%s grace)", s, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		svc.Drain(ctx)
		logf("drain complete, shutting down listener")
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer shutCancel()
		srv.Shutdown(shutCtx)
	}()

	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
}

// cmdWorker runs the distributed execution agent until SIGINT/SIGTERM.
func cmdWorker(args []string) {
	fs := flag.NewFlagSet("algoprofd worker", flag.ExitOnError)
	addr := fs.String("addr", ":7072", "listen address")
	scratch := fs.String("scratch", "", "scratch store directory (default: a temp dir, removed on exit)")
	fs.Parse(args)

	logf := log.New(os.Stderr, "algoprofd-worker: ", log.LstdFlags).Printf
	dir := *scratch
	if dir == "" {
		tmp, err := os.MkdirTemp("", "algoprofd-worker-")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	w, err := dispatch.NewWorker(dir, logf)
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Handler: w.Handler()}
	logf("worker serving on %s, scratch %s", ln.Addr(), dir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		// Workers are stateless: in-flight jobs are revoked by the daemon's
		// lease machinery and re-dispatched, so shutdown is just closing.
		logf("caught %s, shutting down (%d jobs executed)", s, w.Executed())
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutCtx)
	}()
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
}

// dispatchBench is the BENCH_dispatch.json shape: provenance header plus
// the per-leg crash benchmark.
type dispatchBench struct {
	benchfile.Header
	Dispatch *dispatch.BenchReport `json:"dispatch"`
}

// cmdDistbench runs the worker-crash benchmark legs and writes
// BENCH_dispatch.json.
func cmdDistbench(args []string) {
	fs := flag.NewFlagSet("algoprofd distbench", flag.ExitOnError)
	jobs := fs.Int("jobs", 24, "jobs per leg")
	fleet := fs.Int("fleet", 3, "workers per leg")
	seed := fs.Uint64("seed", 1, "workload seed base")
	out := fs.String("out", "BENCH_dispatch.json", "benchmark output file (empty = skip write)")
	check := fs.Bool("check", false, "gate the run: zero lost jobs and zero untyped failures per leg")
	fs.Parse(args)

	scratch, err := os.MkdirTemp("", "algoprofd-distbench-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(scratch)
	rep, err := dispatch.RunBench(dispatch.BenchConfig{
		Dir:     scratch,
		Workers: *fleet,
		Jobs:    *jobs,
		Seed:    *seed,
		Logf:    log.Printf,
	})
	if err != nil {
		fatal(err)
	}
	for _, leg := range rep.Legs {
		fmt.Printf("distbench %s: %.1f jobs/s, latency median %.1fms (quartiles %.1f–%.1f), %d ok/%d degraded/%d failed/%d lost, %d retries, %d revocations, %d quarantines, %d fallbacks\n",
			leg.Name, leg.JobsPerSec, leg.LatencyMs.Median, leg.LatencyMs.Q1, leg.LatencyMs.Q3,
			leg.OK, leg.Degraded, leg.Failed, leg.Lost,
			leg.Retries, leg.LeaseRevocations, leg.Quarantines, leg.Fallbacks)
	}
	if *out != "" {
		if err := benchfile.Write(*out, &dispatchBench{Dispatch: rep}); err != nil {
			fatal(err)
		}
	}
	if *check {
		if bad := rep.Check(); len(bad) > 0 {
			fatal(fmt.Errorf("distbench -check failed:\n  %s", strings.Join(bad, "\n  ")))
		}
		fmt.Println("distbench -check: ok")
	}
}

// serviceBench is the BENCH_service.json shape: provenance header plus
// the load report.
type serviceBench struct {
	benchfile.Header
	Load service.LoadReport `json:"load"`
}

func cmdLoadgen(args []string) {
	fs := flag.NewFlagSet("algoprofd loadgen", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:7071", "daemon base URL")
	jobs := fs.Int("jobs", 1000, "total jobs to complete")
	conc := fs.Int("c", 64, "concurrent in-flight submissions")
	tenants := fs.Int("tenants", 4, "synthetic tenants to spread jobs over")
	out := fs.String("out", "BENCH_service.json", "benchmark output file")
	check := fs.Bool("check", false, "gate the run: 0 lost jobs, typed failures, throughput vs -baseline")
	baselinePath := fs.String("baseline", "", "baseline BENCH_service.json for the -check throughput bar")
	fs.Parse(args)

	rep, err := runLoadgen(*addr, *jobs, *conc, *tenants, *out, log.Printf)
	if err != nil {
		fatal(err)
	}
	l := rep.LatencyMs
	var tails string
	if l.P95 != 0 {
		tails += fmt.Sprintf(" p95=%.1fms", l.P95)
	}
	if l.P99 != 0 {
		tails += fmt.Sprintf(" p99=%.1fms", l.P99)
	}
	fmt.Printf("loadgen: %d jobs (%.1f jobs/s): %d ok, %d degraded, %d failed, %d lost; latency median %.1fms (quartiles %.1f–%.1f)%s maxqueue=%d\n",
		rep.Jobs, rep.JobsPerSec, rep.OK, rep.Degraded, rep.Failed, rep.Lost,
		l.Median, l.Q1, l.Q3, tails, rep.MaxQueueDepth)

	if *check {
		var baseline *service.LoadReport
		if *baselinePath != "" {
			data, err := os.ReadFile(*baselinePath)
			if err != nil {
				fatal(fmt.Errorf("loadgen -check: no baseline: %w", err))
			}
			var sb serviceBench
			if err := json.Unmarshal(data, &sb); err != nil {
				fatal(fmt.Errorf("loadgen -check: bad baseline %s: %w", *baselinePath, err))
			}
			baseline = &sb.Load
		}
		if bad := service.CheckLoadReport(rep, baseline); len(bad) > 0 {
			fatal(fmt.Errorf("loadgen -check failed:\n  %s", strings.Join(bad, "\n  ")))
		}
		fmt.Println("loadgen -check: ok")
	}
}

// runLoadgen runs the load and writes the bench file ("" skips the
// write).
func runLoadgen(addr string, jobs, conc, tenants int, out string, logf func(string, ...any)) (*service.LoadReport, error) {
	rep, err := service.RunLoad(context.Background(), service.LoadConfig{
		Addr:        strings.TrimRight(addr, "/"),
		Jobs:        jobs,
		Concurrency: conc,
		Tenants:     tenants,
		Logf:        logf,
	})
	if err != nil {
		return nil, err
	}
	if out != "" {
		if err := benchfile.Write(out, &serviceBench{Load: *rep}); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// cmdSmoke is the CI end-to-end: daemon up, one verified job, a short
// load, all in-process.
func cmdSmoke(args []string) {
	fs := flag.NewFlagSet("algoprofd smoke", flag.ExitOnError)
	jobs := fs.Int("jobs", 60, "loadgen jobs for the smoke run")
	out := fs.String("out", "", "also write the smoke load report to this BENCH file")
	fs.Parse(args)

	if err := smoke(*jobs, *out); err != nil {
		fatal(err)
	}
	fmt.Println("smoke: ok")
}

func smoke(jobs int, out string) error {
	storeDir, err := os.MkdirTemp("", "algoprofd-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(storeDir)

	svc, err := service.New(service.Config{StoreDir: storeDir, QueueDepth: 1024})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	// 1. Submit one job over HTTP and wait for its terminal view.
	src := workloads.RunningExample(workloads.Random, 32, 8, 1)
	req := service.SubmitRequest{
		Tenant: "smoke", Workload: "smoke-e2e", Program: src,
		Config: service.JobConfig{Seed: 7},
	}
	body, _ := json.Marshal(req)
	v, err := submitWait(base, body)
	if err != nil {
		return err
	}
	fmt.Printf("smoke: job %s ok in %dms (%d events, %d trace bytes)\n", v.ID, v.RunMs, v.Events, v.TraceBytes)

	// 2. Stream a second job's NDJSON events to the result line.
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var sr2 service.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sr2)
	resp.Body.Close()
	if err != nil || len(sr2.Jobs) != 1 {
		return fmt.Errorf("smoke: async submit: %v %+v", err, sr2)
	}
	streamResp, err := http.Get(base + "/v1/jobs/" + sr2.Jobs[0].ID + "/stream")
	if err != nil {
		return err
	}
	dec := json.NewDecoder(streamResp.Body)
	var lastType string
	for {
		var ev service.Event
		if err := dec.Decode(&ev); err != nil {
			break
		}
		lastType = ev.Type
	}
	streamResp.Body.Close()
	if lastType != "result" {
		return fmt.Errorf("smoke: stream ended with %q event, want result", lastType)
	}

	// 3. The persisted run passes the forensic audit `algoprof verify`
	// runs, and its profile is byte-identical to the library API's.
	prof, err := algoprof.Run(src, algoprof.Config{Seed: 7})
	if err != nil {
		return err
	}
	want, err := prof.JSON()
	if err != nil {
		return err
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, want); err != nil {
		return err
	}
	checkRun := func(v *service.JobView) error {
		if findings := store.AuditRun(filepath.Join(storeDir, v.ID)); len(findings) != 0 {
			return fmt.Errorf("smoke: audit findings on service run %s: %v", v.ID, findings)
		}
		if !bytes.Equal(v.Profile, compact.Bytes()) {
			return fmt.Errorf("smoke: HTTP profile of %s differs from library run", v.ID)
		}
		return nil
	}
	if err := checkRun(v); err != nil {
		return err
	}
	fmt.Println("smoke: persisted run verified; profile matches library API byte-for-byte")

	// The same job with all_backends runs once, verified, and adds the
	// CCT and basic-block summaries; its profile is still the library's.
	req.Workload, req.Config.AllBackends = "smoke-backends", true
	body, _ = json.Marshal(req)
	if v, err = submitWait(base, body); err != nil {
		return err
	}
	if v.Backends == nil {
		return fmt.Errorf("smoke: all_backends job %s has no backends summary", v.ID)
	}
	if err := checkRun(v); err != nil {
		return err
	}
	fmt.Printf("smoke: all_backends job %s ok, verified (hottest %s; %d trace bytes)\n",
		v.ID, v.Backends.HottestMethod, v.TraceBytes)

	// 4. A short load: every job must terminate in the trichotomy.
	rep, err := runLoadgen(base, jobs, 16, 3, out, nil)
	if err != nil {
		return err
	}
	if bad := service.CheckLoadReport(rep, nil); len(bad) > 0 {
		return fmt.Errorf("smoke loadgen gate failed:\n  %s", strings.Join(bad, "\n  "))
	}
	fmt.Printf("smoke: loadgen %d jobs, %d ok, %d degraded, %d failed, 0 lost (%.1f jobs/s)\n",
		rep.Jobs, rep.OK, rep.Degraded, rep.Failed, rep.JobsPerSec)

	// 5. Drain cleanly.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	svc.Drain(ctx)
	return nil
}

// submitWait submits one job over HTTP, waits for its terminal view, and
// requires it to be ok.
func submitWait(base string, body []byte) (*service.JobView, error) {
	resp, err := http.Post(base+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var sr service.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if len(sr.Jobs) != 1 || sr.Jobs[0].Status != service.StatusOK {
		return nil, fmt.Errorf("smoke: submit returned %+v", sr)
	}
	return sr.Jobs[0], nil
}

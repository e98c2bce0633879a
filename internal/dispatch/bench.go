package dispatch

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"algoprof/internal/benchfile"
	"algoprof/internal/faultinject"
	"algoprof/internal/service"
	"algoprof/internal/trace/store"
	"algoprof/internal/workloads"
)

// BenchConfig parameterizes the distributed dispatch benchmark.
type BenchConfig struct {
	// Dir is the scratch directory (stores, worker scratch). Required.
	Dir string
	// Workers is the fleet size per leg (default 3).
	Workers int
	// Jobs per leg (default 24).
	Jobs int
	// Crashes lists the legs: one leg per entry, crashing that many
	// workers mid-batch (default {0, 1, 2}).
	Crashes []int
	// Seed drives the per-job workload seeds.
	Seed uint64
	// Logf receives progress lines (nil = silent).
	Logf func(string, ...any)
}

// BenchLeg is one leg's measurements: a batch of jobs pushed through the
// distributed stack while the configured number of workers crash abruptly
// mid-batch.
type BenchLeg struct {
	Name          string `json:"name"`
	WorkerCrashes int    `json:"worker_crashes"`
	// Outcomes tallies the leg's jobs; its Check gates the leg, crashes
	// or not.
	service.Outcomes

	JobsPerSec float64 `json:"jobs_per_sec"`
	// LatencyMs summarizes each job's queue plus run time.
	LatencyMs benchfile.Summary `json:"latency_ms"`

	// Dispatch-layer counters: what the fault load actually exercised.
	Dispatched       int64 `json:"dispatched"`
	Retries          int64 `json:"retries"`
	LeaseRevocations int64 `json:"lease_revocations"`
	Quarantines      int64 `json:"quarantines"`
	Fallbacks        int64 `json:"fallbacks"`
	RemoteOK         int64 `json:"remote_ok"`
}

// BenchReport is the full benchmark: one leg per crash count.
type BenchReport struct {
	Workers    int        `json:"workers"`
	JobsPerLeg int        `json:"jobs_per_leg"`
	Legs       []BenchLeg `json:"legs"`
}

// Check gates the report: every leg's outcomes must pass their Check. It
// returns the violations (empty = pass).
func (r *BenchReport) Check() []string {
	var v []string
	if len(r.Legs) == 0 {
		v = append(v, "bench report has no legs")
	}
	for _, leg := range r.Legs {
		for _, bad := range leg.Check() {
			v = append(v, fmt.Sprintf("leg %s: %s", leg.Name, bad))
		}
	}
	return v
}

// RunBench measures dispatch throughput and latency under worker crashes:
// one leg per configured crash count, each on a fresh daemon and fleet.
func RunBench(cfg BenchConfig) (*BenchReport, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("dispatch bench: Config.Dir required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 3
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 24
	}
	if len(cfg.Crashes) == 0 {
		cfg.Crashes = []int{0, 1, 2}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	rep := &BenchReport{Workers: cfg.Workers, JobsPerLeg: cfg.Jobs}
	for _, crashes := range cfg.Crashes {
		if crashes >= cfg.Workers {
			return nil, fmt.Errorf("dispatch bench: leg crashes %d >= fleet size %d", crashes, cfg.Workers)
		}
		leg, err := runBenchLeg(cfg, crashes)
		if err != nil {
			return nil, err
		}
		rep.Legs = append(rep.Legs, *leg)
		cfg.Logf("distbench: %s: %.1f jobs/s median %.1fms (%d ok, %d retries, %d revocations, %d fallbacks)",
			leg.Name, leg.JobsPerSec, leg.LatencyMs.Median, leg.OK, leg.Retries, leg.LeaseRevocations, leg.Fallbacks)
	}
	return rep, nil
}

func runBenchLeg(cfg BenchConfig, crashes int) (*BenchLeg, error) {
	base := filepath.Join(cfg.Dir, fmt.Sprintf("leg-crash-%d", crashes))
	var fleet []*LocalWorker
	var urls []string
	for i := 0; i < cfg.Workers; i++ {
		lw, err := StartLocalWorker(filepath.Join(base, fmt.Sprintf("w%d", i)))
		if err != nil {
			return nil, err
		}
		fleet = append(fleet, lw)
		urls = append(urls, lw.URL)
	}
	defer func() {
		for _, lw := range fleet {
			lw.Crash()
		}
	}()

	var disp *Dispatcher
	svc, err := service.New(service.Config{
		StoreDir: filepath.Join(base, "store"),
		Workers:  cfg.Workers + 1,
		MakeExecutor: func(local service.Executor, st *store.Store) service.Executor {
			disp = New(Config{
				Workers:  urls,
				LeaseTTL: 500 * time.Millisecond,
				Retry:    faultinject.RetryPolicy{Attempts: 4, Backoff: 2 * time.Millisecond, Jitter: 0.5, Seed: cfg.Seed},
				Fallback: local,
				Store:    st,
			})
			return disp
		},
	})
	if err != nil {
		return nil, err
	}

	src := workloads.RunningExample(workloads.Random, 32, 8, 1)
	leg := &BenchLeg{Name: fmt.Sprintf("crash-%d", crashes), WorkerCrashes: crashes, Outcomes: service.Outcomes{Jobs: cfg.Jobs}}
	start := time.Now()
	var ids []string
	for i := 0; i < cfg.Jobs; i++ {
		v, err := svc.Submit(service.SubmitRequest{
			Tenant: "bench", Workload: "dispatch-bench", Program: src,
			Config: service.JobConfig{Seed: cfg.Seed*uint64(cfg.Jobs) + uint64(i) + 1},
		})
		if err != nil {
			return nil, fmt.Errorf("bench submit %d: %w", i, err)
		}
		ids = append(ids, v.ID)
		if crashes > 0 && i == cfg.Jobs/4 {
			// Crash mid-batch: in-flight leases sever, queued work re-routes.
			for c := 0; c < crashes; c++ {
				fleet[c].Crash()
			}
		}
	}

	// Wait for every job to land, then measure.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st := svc.Stats()
		if st.Queued == 0 && st.Running == 0 {
			break
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	elapsed := time.Since(start)

	var latencies []float64
	for _, id := range ids {
		v, ok := svc.Job(id)
		if !ok || !v.Status.Terminal() {
			leg.Lost++
			continue
		}
		latencies = append(latencies, float64(v.QueueMs+v.RunMs))
		leg.Add(v.Status, v.ErrorKind, v.ErrorClass)
	}
	leg.JobsPerSec = float64(len(ids)-leg.Lost) / elapsed.Seconds()
	leg.LatencyMs = benchfile.Summarize(latencies)
	if disp != nil {
		stats := disp.Stats()
		leg.Dispatched = stats.Dispatched
		leg.Retries = stats.Retries
		leg.LeaseRevocations = stats.LeaseRevocations
		leg.Quarantines = stats.Quarantines
		leg.Fallbacks = stats.Fallbacks
		leg.RemoteOK = stats.RemoteOK
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	svc.Drain(ctx)
	cancel()
	return leg, nil
}

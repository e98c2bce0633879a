package chaos

import (
	"context"
	"fmt"
	"path/filepath"
	"syscall"
	"time"

	"algoprof/internal/dispatch"
	"algoprof/internal/faultinject"
	"algoprof/internal/service"
	"algoprof/internal/trace/store"
	"algoprof/internal/workloads"
)

// daemonCorpus is the Service and Dist workload set: a small slice of
// libCorpus, since daemon schedules run several jobs per seed.
func daemonCorpus(*schedule) []workload {
	return []workload{
		{"running", workloads.RunningExample(workloads.Random, 32, 8, 1)},
		{"sorts", workloads.MergeVsInsertion(24, 8, 1)},
	}
}

// serviceFamilies: clean or absorbed-transient, intake rejection,
// persist-path resource exhaustion, and silent trace corruption under the
// daemon.
var serviceFamilies = [4]family{
	func(sc *schedule, draw func(uint64) uint64) {
		// Clean, or a transient store fault the retry policy absorbs.
		if draw(2) == 1 {
			sc.fault("fsync-transient", faultinject.PointSync, faultinject.PointConfig{
				Prob: 1, MaxFires: 1 + int(draw(2)), Class: faultinject.Transient, Errno: syscall.EINTR,
			})
		}
	},
	func(sc *schedule, draw func(uint64) uint64) {
		// Intake fault: some submissions must be rejected typed, with
		// nothing queued or stored for them.
		sc.fault("intake-reject", faultinject.PointServiceIntake, faultinject.PointConfig{
			Prob: 1, MaxFires: 1 + int(draw(2)), Class: faultinject.Transient, Errno: syscall.EAGAIN,
		})
	},
	func(sc *schedule, _ func(uint64) uint64) {
		// Persist-path resource exhaustion: admitted jobs must fail typed
		// Resource, not vanish.
		sc.fault("persist-enospc", faultinject.PointServicePersist, faultinject.PointConfig{
			Prob: 1, MaxFires: 1, Class: faultinject.Resource, Errno: syscall.ENOSPC,
		})
	},
	traceBitFlip,
}

// runService boots a daemon on the schedule's faulted store, pushes three
// jobs through it, and classifies. The bit-flip family damages stored runs
// on purpose, so a typed audit finding fails the seed.
func runService(tr *trial) {
	svc, err := service.New(service.Config{StoreDir: tr.dir, Workers: 2, Plan: tr.sc.plan(tr.seed)})
	if err != nil {
		tr.fail(err, "service boot failure")
		return
	}
	tr.settle(svc, tr.dir, tr.submit(svc, 3, "chaos"), true)
}

// distFamilies: abrupt worker crash, network partition, slow worker
// against a short lease, and silent response corruption. runDist aims
// every armed point at worker 1, leaving worker 2 as the healthy escape
// route.
var distFamilies = [4]family{
	func(sc *schedule, _ func(uint64) uint64) {
		// Abrupt worker crash mid-batch: in-flight streams sever (transient),
		// the lease machinery and retry move everything to worker 2.
		sc.names = append(sc.names, "worker-crash")
		sc.crash = true
	},
	func(sc *schedule, draw func(uint64) uint64) {
		// Network partition: worker 1 unreachable until the fire budget
		// heals the link.
		sc.fault("partition", faultinject.PointNetPartition, faultinject.PointConfig{
			Prob: 1, MaxFires: 2 + int(draw(4)), Class: faultinject.Transient,
		})
	},
	func(sc *schedule, draw func(uint64) uint64) {
		// Slow worker under a short lease: injected delays up to
		// faultinject.NetDelayMax against a 50ms TTL force revocations and
		// re-dispatch; delays under the TTL are merely slow.
		sc.shortLease = true
		sc.fault("slow-worker", faultinject.PointNetDelay, faultinject.PointConfig{
			Prob: 1, MaxFires: 1 + int(draw(3)), Class: faultinject.Transient,
		})
	},
	func(sc *schedule, draw func(uint64) uint64) {
		// Silent wire corruption: bit-flipped responses from worker 1 must
		// be detected (digest/stream checks), quarantine it, and re-execute
		// on worker 2 — never ingest damaged bytes.
		sc.fault("corrupt-response", faultinject.PointNetCorrupt, faultinject.PointConfig{
			Prob: 1, MaxFires: 1 + int(draw(3)), Class: faultinject.Corruption,
		})
	},
}

// runDist boots two worker servers and a daemon routing jobs to them,
// pushes four jobs through, and classifies. Wire faults must be caught
// before ingest, so any audit finding on the daemon's store is a
// violation.
func runDist(tr *trial) {
	var fleet [2]*dispatch.LocalWorker
	for i := range fleet {
		w, err := dispatch.StartLocalWorker(filepath.Join(tr.dir, fmt.Sprintf("w%d", i+1)))
		if err != nil {
			tr.violation("worker %d boot: %v", i+1, err)
			tr.res.Outcome = Failed
			tr.res.Err = err.Error()
			return
		}
		defer w.Crash()
		fleet[i] = w
	}
	// Aim every armed point at worker 1 (see distFamilies).
	for i := range tr.sc.points {
		tr.sc.points[i].cfg.PathSuffix = fleet[0].Host
	}
	plan := tr.sc.plan(tr.seed)
	lease := time.Second
	if tr.sc.shortLease {
		lease = 50 * time.Millisecond
	}
	storeDir := filepath.Join(tr.dir, "store")
	svc, err := service.New(service.Config{
		StoreDir: storeDir,
		Workers:  2,
		MakeExecutor: dispatch.MakeExecutor(dispatch.Config{
			Workers:   []string{fleet[0].URL, fleet[1].URL},
			LeaseTTL:  lease,
			Retry:     faultinject.RetryPolicy{Attempts: 4, Backoff: 2 * time.Millisecond, Jitter: 0.5, Seed: tr.seed},
			Transport: plan.Transport(nil),
		}),
	})
	if err != nil {
		tr.fail(err, "daemon boot failure")
		return
	}
	ids := tr.submit(svc, 4, "dist")
	if tr.sc.crash {
		// Let the batch reach worker 1, then kill it mid-flight.
		time.Sleep(10 * time.Millisecond)
		fleet[0].Crash()
	}
	tr.settle(svc, storeDir, ids, false)
}

// submit sends jobs runs of the workload, alternating between two
// tenants, each with its own seed, and returns the admitted job IDs.
// Every rejection must be typed; a schedule whose every submission
// bounces fails with the last rejection's class.
func (tr *trial) submit(svc *service.Service, jobs int, tenant string) (ids []string) {
	var rejected error
	for i := 0; i < jobs; i++ {
		v, err := svc.Submit(service.SubmitRequest{
			Tenant:  fmt.Sprintf("%s-%d", tenant, i%2),
			Program: tr.w.src,
			Config:  service.JobConfig{Seed: tr.seed*uint64(jobs) + uint64(i) + 1},
		})
		if err != nil {
			if faultinject.ClassOf(err) == faultinject.Unknown {
				tr.violation("untyped submission rejection: %v", err)
			}
			rejected = err
			continue
		}
		ids = append(ids, v.ID)
	}
	if len(ids) == 0 {
		tr.res.Outcome = Failed
		tr.res.Class = faultinject.ClassOf(rejected)
		tr.res.Err = "all submissions rejected at intake: " + rejected.Error()
	}
	return ids
}

// settle drains the daemon and classifies the schedule: every admitted
// job must be terminal and every failure typed, the store must reopen and
// list, and every persisted run must pass the audit. findingsFail says
// whether a typed audit finding fails the seed (the schedule damages the
// store on purpose) or is a violation (nothing damaged may be ingested).
func (tr *trial) settle(svc *service.Service, storeDir string, ids []string, findingsFail bool) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	svc.Drain(ctx)
	cancel()

	res := tr.res
	for _, id := range ids {
		v, ok := svc.Job(id)
		if !ok || !v.Status.Terminal() {
			tr.violation("job %s lost: not terminal after drain", id)
			continue
		}
		switch v.Status {
		case service.StatusDegraded:
			if res.Outcome == OK {
				res.Outcome = Degraded
			}
		case service.StatusFailed:
			res.Outcome = Failed
			res.Class = faultinject.ParseClass(v.ErrorClass)
			res.Err = v.Error
			if !service.TypedFailure(v.ErrorKind, v.ErrorClass) {
				tr.violation("job %s failed untyped: kind=%q class=%q err=%s", id, v.ErrorKind, v.ErrorClass, v.Error)
			}
		}
	}

	s, err := store.Open(storeDir)
	if err != nil {
		tr.violation("store unopenable after drain: %v", err)
		return
	}
	s.SetLogf(nil)
	names, err := s.List()
	if err != nil {
		tr.violation("store unlistable after drain: %v", err)
		return
	}
	for _, name := range names {
		for _, f := range store.AuditRun(filepath.Join(storeDir, name)) {
			if !findingsFail {
				tr.violation("ingested run %s failed audit: %s", name, f.Msg)
				continue
			}
			if f.Class == faultinject.Unknown {
				tr.violation("run %s audit finding untyped: %s", name, f.Msg)
			}
			res.Outcome = Failed
			if res.Err == "" {
				res.Err = fmt.Sprintf("run %s: %s", name, f.Msg)
				res.Class = f.Class
			}
		}
	}
}

package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"algoprof"
	"algoprof/internal/faultinject"
	"algoprof/internal/service"
	"algoprof/internal/trace/store"
	"algoprof/internal/workloads"
)

var testSrc = workloads.RunningExample(workloads.Random, 24, 8, 1)

// failSrc compiles but fails deterministically at runtime: the remote
// typed-failure case.
const failSrc = `
class Main {
  public static void main() {
    int x = 1;
    check(x == 2);
  }
}`

func newWorkerServer(t *testing.T) (*Worker, *httptest.Server) {
	t.Helper()
	w, err := NewWorker(t.TempDir(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)
	return w, srv
}

func newDaemonStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.SetLogf(func(string, ...any) {})
	return st
}

func testSpec(id string, persist bool) service.ExecSpec {
	cfg := algoprof.Config{Mode: algoprof.ModeEvents, Seed: 7}
	if !persist {
		cfg.Mode = algoprof.ModePaths
	}
	return service.ExecSpec{
		ID:      id,
		Tenant:  "disp",
		Key:     service.JobKey("disp", "w", testSrc, cfg),
		Program: testSrc,
		Config:  cfg,
		Persist: persist,
	}
}

func hostOf(url string) string { return strings.TrimPrefix(url, "http://") }

func libraryCompactJSON(t *testing.T, src string, cfg algoprof.Config) []byte {
	t.Helper()
	prof, err := algoprof.Run(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := prof.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, data); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDispatchExecutesRemotely: the basic remote path — the job runs on
// the worker, its artifacts ingest into the daemon store, and the outcome
// is byte-identical to a local library run.
func TestDispatchExecutesRemotely(t *testing.T) {
	_, srv := newWorkerServer(t)
	st := newDaemonStore(t)
	d := New(Config{Workers: []string{srv.URL}, Store: st, Logf: t.Logf})

	spec := testSpec("j1-000001", true)
	out, err := d.Execute(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Worker != srv.URL || out.DispatchAttempts != 1 {
		t.Fatalf("worker=%q attempts=%d, want %q/1", out.Worker, out.DispatchAttempts, srv.URL)
	}
	prof, err := algoprof.Run(spec.Program, spec.Config)
	if err != nil {
		t.Fatal(err)
	}
	if out.Events != prof.EventCount() {
		t.Fatalf("remote events %d, want library's %d", out.Events, prof.EventCount())
	}
	if want := libraryCompactJSON(t, spec.Program, spec.Config); !bytes.Equal(out.ProfileJSON, want) {
		t.Errorf("remote profile differs from library run\nremote: %s\nlocal:  %s", out.ProfileJSON, want)
	}
	if out.TraceBytes <= 0 {
		t.Fatalf("persist job charged %d trace bytes", out.TraceBytes)
	}
	if _, err := st.Replay(spec.ID); err != nil {
		t.Fatalf("ingested run does not replay: %v", err)
	}
}

// TestDispatchPathsModeNoPersist: a paths-mode job ships no artifacts and
// charges no trace bytes, but the profile still comes back.
func TestDispatchPathsModeNoPersist(t *testing.T) {
	_, srv := newWorkerServer(t)
	st := newDaemonStore(t)
	d := New(Config{Workers: []string{srv.URL}, Store: st})

	out, err := d.Execute(context.Background(), testSpec("j1-000002", false), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.ProfileJSON) == 0 || out.TraceBytes != 0 {
		t.Fatalf("paths outcome: profile %d bytes, trace %d", len(out.ProfileJSON), out.TraceBytes)
	}
	if names, _ := st.List(); len(names) != 0 {
		t.Fatalf("paths-mode job left runs in the daemon store: %v", names)
	}
}

// TestDispatchRetriesTransient: an injected connection failure consumes
// one attempt; the jittered retry lands the job on the next one.
func TestDispatchRetriesTransient(t *testing.T) {
	_, srv := newWorkerServer(t)
	st := newDaemonStore(t)
	plan := faultinject.NewPlan(11)
	plan.Arm(faultinject.PointNetDial, faultinject.PointConfig{
		Prob: 1, MaxFires: 1, Class: faultinject.Transient, Errno: syscall.ECONNREFUSED,
	})
	d := New(Config{
		Workers:   []string{srv.URL},
		Store:     st,
		Transport: plan.Transport(nil),
		Retry:     faultinject.RetryPolicy{Attempts: 3, Backoff: time.Millisecond, Jitter: 0.5},
		Logf:      t.Logf,
	})

	out, err := d.Execute(context.Background(), testSpec("j1-000003", true), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.DispatchAttempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one injected dial failure)", out.DispatchAttempts)
	}
	stats := d.Stats()
	if stats.Retries != 1 || stats.Dispatched != 2 {
		t.Fatalf("stats = %+v, want 1 retry / 2 dispatched", stats)
	}
}

// TestDispatchCorruptionQuarantines: a worker whose responses are
// silently bit-flipped is quarantined permanently — the digest/stream
// checks catch the damage, the job re-executes on a clean worker, and no
// later job ever routes to the quarantined one.
func TestDispatchCorruptionQuarantines(t *testing.T) {
	_, srv1 := newWorkerServer(t)
	_, srv2 := newWorkerServer(t)
	st := newDaemonStore(t)
	plan := faultinject.NewPlan(23)
	plan.Arm(faultinject.PointNetCorrupt, faultinject.PointConfig{
		Prob: 1, Class: faultinject.Corruption, PathSuffix: hostOf(srv1.URL),
	})
	d := New(Config{
		Workers:   []string{srv1.URL, srv2.URL},
		Store:     st,
		Transport: plan.Transport(nil),
		Logf:      t.Logf,
	})

	out, err := d.Execute(context.Background(), testSpec("j1-000004", true), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Worker != srv2.URL {
		t.Fatalf("job finished on %q, want the clean worker %q", out.Worker, srv2.URL)
	}
	stats := d.Stats()
	if stats.Quarantines != 1 || stats.CorruptResults == 0 {
		t.Fatalf("stats = %+v, want 1 quarantine and detected corruption", stats)
	}
	if _, err := st.Replay("j1-000004"); err != nil {
		t.Fatalf("run ingested from clean worker does not replay: %v", err)
	}

	// The quarantine is permanent: later jobs never touch worker 1.
	before := d.Stats().Workers[0].Dispatched
	if _, err := d.Execute(context.Background(), testSpec("j1-000005", true), nil); err != nil {
		t.Fatal(err)
	}
	if after := d.Stats().Workers[0].Dispatched; after != before {
		t.Fatalf("quarantined worker received %d new dispatches", after-before)
	}
}

// stuckHandler speaks just enough protocol to look alive, then goes
// silent: one heartbeat, then nothing until the request context dies.
func stuckHandler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/x-ndjson")
		rw.WriteHeader(http.StatusOK)
		fmt.Fprintf(rw, "{\"type\":%q}\n", wireHeartbeat)
		rw.(http.Flusher).Flush()
		<-r.Context().Done()
	})
}

// TestDispatchLeaseRevocation: a worker that stops heartbeating loses its
// lease after the TTL; the dispatcher revokes (cancelling the remote
// attempt) and the job lands on a healthy worker.
func TestDispatchLeaseRevocation(t *testing.T) {
	stuck := httptest.NewServer(stuckHandler())
	t.Cleanup(stuck.Close)
	_, good := newWorkerServer(t)
	st := newDaemonStore(t)
	d := New(Config{
		Workers:  []string{stuck.URL, good.URL},
		Store:    st,
		LeaseTTL: 80 * time.Millisecond,
		Retry:    faultinject.RetryPolicy{Attempts: 3, Backoff: time.Millisecond},
		Logf:     t.Logf,
	})

	out, err := d.Execute(context.Background(), testSpec("j1-000006", true), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Worker != good.URL || out.DispatchAttempts != 2 {
		t.Fatalf("worker=%q attempts=%d, want %q/2", out.Worker, out.DispatchAttempts, good.URL)
	}
	if stats := d.Stats(); stats.LeaseRevocations != 1 {
		t.Fatalf("stats = %+v, want 1 lease revocation", stats)
	}
}

// TestDispatchFallbackNoWorkers: with an empty fleet, jobs execute on the
// local fallback under their admitted limits — never dropped.
func TestDispatchFallbackNoWorkers(t *testing.T) {
	st := newDaemonStore(t)
	d := New(Config{
		Store:    st,
		Fallback: service.NewLocalExecutor(st),
	})
	spec := testSpec("j1-000007", true)
	out, err := d.Execute(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Worker != WorkerLocal || out.DispatchAttempts != 0 {
		t.Fatalf("worker=%q attempts=%d, want local/0", out.Worker, out.DispatchAttempts)
	}
	if d.Stats().Fallbacks != 1 {
		t.Fatalf("stats = %+v, want 1 fallback", d.Stats())
	}
	if _, err := st.Replay(spec.ID); err != nil {
		t.Fatalf("fallback run does not replay: %v", err)
	}
}

// TestDispatchFallbackDeadFleet: every worker unreachable (refused
// connections) exhausts the retry budget and degrades to local execution.
func TestDispatchFallbackDeadFleet(t *testing.T) {
	// A listener that is immediately closed: connection refused.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	st := newDaemonStore(t)
	d := New(Config{
		Workers:  []string{deadURL},
		Store:    st,
		Retry:    faultinject.RetryPolicy{Attempts: 2, Backoff: time.Millisecond},
		Fallback: service.NewLocalExecutor(st),
		Logf:     t.Logf,
	})
	out, err := d.Execute(context.Background(), testSpec("j1-000008", true), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Worker != WorkerLocal || out.DispatchAttempts != 2 {
		t.Fatalf("worker=%q attempts=%d, want local/2", out.Worker, out.DispatchAttempts)
	}
	stats := d.Stats()
	if stats.Fallbacks != 1 || stats.Workers[0].Failures != 2 {
		t.Fatalf("stats = %+v, want 1 fallback / 2 worker failures", stats)
	}
}

// TestDispatchNoWorkersNoFallbackTyped: the pathological configuration
// still fails typed, never silently.
func TestDispatchNoWorkersNoFallbackTyped(t *testing.T) {
	d := New(Config{Store: newDaemonStore(t)})
	_, err := d.Execute(context.Background(), testSpec("j1-000009", false), nil)
	if err == nil || faultinject.ClassOf(err) != faultinject.Resource {
		t.Fatalf("err = %v (class %v), want typed Resource", err, faultinject.ClassOf(err))
	}
}

// TestDispatchRemoteTypedFailureNotRetried: a deterministic job-level
// failure is the job's result — re-running it anywhere reproduces it, so
// the dispatcher must not burn retries or punish the worker.
func TestDispatchRemoteTypedFailureNotRetried(t *testing.T) {
	_, srv := newWorkerServer(t)
	st := newDaemonStore(t)
	d := New(Config{Workers: []string{srv.URL}, Store: st, Logf: t.Logf})

	cfg := algoprof.Config{Mode: algoprof.ModeEvents, Seed: 1}
	spec := service.ExecSpec{
		ID: "j1-000010", Tenant: "disp", Key: service.JobKey("disp", "w", failSrc, cfg),
		Program: failSrc, Config: cfg, Persist: true,
	}
	_, err := d.Execute(context.Background(), spec, nil)
	if err == nil || !strings.Contains(err.Error(), "check") {
		t.Fatalf("err = %v, want the remote check failure", err)
	}
	stats := d.Stats()
	if stats.Retries != 0 || stats.Dispatched != 1 {
		t.Fatalf("stats = %+v: a deterministic failure must not retry", stats)
	}
	if stats.Workers[0].BreakerOpen || stats.Workers[0].Quarantined {
		t.Fatalf("healthy worker penalized for a job-level failure: %+v", stats.Workers[0])
	}
}

// TestDispatchBreakerOpens: enough consecutive transport failures open the
// worker's breaker, and pick() routes around it while open.
func TestDispatchBreakerOpens(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	_, good := newWorkerServer(t)
	st := newDaemonStore(t)
	d := New(Config{
		Workers:          []string{deadURL, good.URL},
		Store:            st,
		Retry:            faultinject.RetryPolicy{Attempts: 4, Backoff: time.Millisecond},
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
		Logf:             t.Logf,
	})

	// Two jobs: the dead worker eats one transient failure per job (pick
	// rotation alternates), crossing the threshold on the second.
	for i := 0; i < 2; i++ {
		if _, err := d.Execute(context.Background(), testSpec(fmt.Sprintf("j1-0000%d", 11+i), true), nil); err != nil {
			t.Fatal(err)
		}
	}
	stats := d.Stats()
	if stats.Workers[0].Failures < 2 || !stats.Workers[0].BreakerOpen {
		t.Fatalf("dead worker stats = %+v, want open breaker", stats.Workers[0])
	}
	if stats.BreakerOpens < 1 {
		t.Fatalf("stats = %+v, want at least one breaker open", stats)
	}

	// While open, jobs go straight to the healthy worker: first attempt.
	out, err := d.Execute(context.Background(), testSpec("j1-000013", true), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Worker != good.URL || out.DispatchAttempts != 1 {
		t.Fatalf("worker=%q attempts=%d, want %q/1 (breaker routes around)", out.Worker, out.DispatchAttempts, good.URL)
	}
}

// TestDispatchIdempotentReingest: the same job result landing twice (a
// revoked-then-completed first attempt racing the re-dispatch) ingests
// exactly once, deduplicated by content.
func TestDispatchIdempotentReingest(t *testing.T) {
	_, srv := newWorkerServer(t)
	st := newDaemonStore(t)
	d := New(Config{Workers: []string{srv.URL}, Store: st})

	spec := testSpec("j1-000014", true)
	first, err := d.Execute(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Re-dispatch the identical spec: deterministic re-execution produces
	// byte-identical artifacts, and ingestion dedups by content.
	second, err := d.Execute(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.TraceBytes != second.TraceBytes || !bytes.Equal(first.ProfileJSON, second.ProfileJSON) {
		t.Fatalf("re-dispatch diverged: %d/%d trace bytes", first.TraceBytes, second.TraceBytes)
	}
	names, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("store has %d runs after duplicate ingest, want 1", len(names))
	}
}

// TestServiceWithDispatchExecutor: the whole stack — service admission,
// journal, quotas — running on remote execution via the MakeExecutor
// seam. Job views carry the worker attribution and persisted runs land in
// the daemon's store.
func TestServiceWithDispatchExecutor(t *testing.T) {
	_, srv := newWorkerServer(t)
	dir := t.TempDir()
	svc, err := service.New(service.Config{
		StoreDir:     dir,
		Workers:      2,
		MakeExecutor: MakeExecutor(Config{Workers: []string{srv.URL}, Logf: t.Logf}),
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		svc.Drain(ctx)
	}()

	var ids []string
	for i := 0; i < 3; i++ {
		v, err := svc.Submit(service.SubmitRequest{
			Tenant: "fleet", Program: testSrc,
			Config: service.JobConfig{Seed: uint64(i + 1)},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	deadline := time.Now().Add(60 * time.Second)
	for _, id := range ids {
		for {
			v, ok := svc.Job(id)
			if ok && v.Status.Terminal() {
				if v.Status != service.StatusOK {
					t.Fatalf("job %s = %s (%s)", id, v.Status, v.Error)
				}
				if v.Worker != srv.URL || v.DispatchAttempts != 1 {
					t.Fatalf("job %s worker=%q attempts=%d", id, v.Worker, v.DispatchAttempts)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never terminal", id)
			}
			time.Sleep(2 * time.Millisecond)
		}
		if _, err := svc.Store().Replay(id); err != nil {
			t.Fatalf("run %s does not replay from daemon store: %v", id, err)
		}
	}
	if used := svc.Stats().Tenants["fleet"].EventsUsed; used == 0 {
		t.Fatal("remote execution charged no events")
	}
}

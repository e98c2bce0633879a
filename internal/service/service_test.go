package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"algoprof"
	"algoprof/internal/trace/store"
	"algoprof/internal/workloads"
)

// smallSrc is a quick running-example sort — a job that completes in
// milliseconds.
var smallSrc = workloads.RunningExample(workloads.Random, 24, 8, 1)

// busySrc runs long enough (tens of milliseconds, many watchdog polls)
// that drain and concurrency tests can deterministically catch it queued
// or mid-flight.
const busySrc = `
class Main {
  public static void main() {
    int s = 0;
    for (int i = 0; i < 5000000; i++) { s = s + 1; }
    check(s == 5000000);
  }
}`

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.StoreDir == "" {
		cfg.StoreDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s
}

// libraryJSON runs the program through the library API and returns the
// profile JSON in the service's compact wire form.
func libraryJSON(t *testing.T, src string, cfg algoprof.Config) []byte {
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

// awaitJob blocks until the job is terminal.
func awaitJob(t *testing.T, s *Service, id string) *JobView {
	t.Helper()
	ch, cancel, err := s.Subscribe(id)
	if err != nil {
		t.Fatalf("subscribe %s: %v", id, err)
	}
	defer cancel()
	deadline := time.After(60 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatalf("job %s not terminal after 60s", id)
		case ev, ok := <-ch:
			if !ok {
				v, found := s.Job(id)
				if !found || !v.Status.Terminal() {
					t.Fatalf("stream for %s closed before terminal state", id)
				}
				return v
			}
			if ev.Type == "result" {
				return ev.Result
			}
		}
	}
}

// TestConcurrentSubmissionDeterministic is the headline -race test: N
// client goroutines × M jobs each, spread over tenants, all completing
// with the same byte-identical profile the library API produces for the
// same program and config — queueing order and worker interleaving must
// not leak into results.
func TestConcurrentSubmissionDeterministic(t *testing.T) {
	const clients, jobsPer = 8, 4
	s := newTestService(t, Config{Workers: 4, QueueDepth: 256})

	// The ground truth: one library run per seed.
	want := map[uint64][]byte{}
	for seed := uint64(1); seed <= 3; seed++ {
		want[seed] = libraryJSON(t, smallSrc, algoprof.Config{Seed: seed})
	}

	type submitted struct {
		id   string
		seed uint64
	}
	var mu sync.Mutex
	var all []submitted
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; j < jobsPer; j++ {
				seed := uint64(1 + (c+j)%3)
				v, err := s.Submit(SubmitRequest{
					Tenant:  fmt.Sprintf("tenant-%d", c%3),
					Program: smallSrc,
					Config:  JobConfig{Seed: seed},
				})
				if err != nil {
					t.Errorf("client %d submit: %v", c, err)
					return
				}
				mu.Lock()
				all = append(all, submitted{v.ID, seed})
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	if len(all) != clients*jobsPer {
		t.Fatalf("submitted %d jobs, want %d", len(all), clients*jobsPer)
	}
	for _, sub := range all {
		v := awaitJob(t, s, sub.id)
		if v.Status != StatusOK {
			t.Fatalf("job %s status %s (%s), want ok", sub.id, v.Status, v.Error)
		}
		if !bytes.Equal(v.Profile, want[sub.seed]) {
			t.Errorf("job %s (seed %d): profile differs from library run", sub.id, sub.seed)
		}
	}

	// Every events-mode job persisted into the store under its tenant.
	names, err := s.Store().List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != clients*jobsPer {
		t.Fatalf("store has %d runs, want %d", len(names), clients*jobsPer)
	}
	scoped, err := s.Store().ListTenant("tenant-0")
	if err != nil {
		t.Fatal(err)
	}
	if len(scoped) == 0 {
		t.Fatal("tenant-0 has no runs in the store")
	}
}

// TestNoCrossTenantQuotaBleed: one tenant exhausting its event budget must
// not clamp, reject, or degrade another tenant's jobs.
func TestNoCrossTenantQuotaBleed(t *testing.T) {
	s := newTestService(t, Config{
		Workers: 2,
		Quotas: map[string]Quota{
			"capped": {EventBudget: 500},
		},
	})

	// Burn the capped tenant's budget.
	v, err := s.Submit(SubmitRequest{Tenant: "capped", Program: smallSrc, Config: JobConfig{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	fv := awaitJob(t, s, v.ID)
	if fv.Status != StatusDegraded {
		t.Fatalf("capped job status %s, want degraded (budget clamps MaxEvents)", fv.Status)
	}
	if fv.EffectiveLimits.MaxEvents != 500 {
		t.Fatalf("capped job effective MaxEvents %d, want 500", fv.EffectiveLimits.MaxEvents)
	}

	// Budget spent: next capped submission rejects typed.
	_, err = s.Submit(SubmitRequest{Tenant: "capped", Program: smallSrc, Config: JobConfig{Seed: 1}})
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("over-budget submit error = %v (%T), want *QuotaError", err, err)
	}
	if qe.Limit != "event-budget" {
		t.Fatalf("quota error limit %q, want event-budget", qe.Limit)
	}

	// The free tenant is untouched: unclamped limits, ok status.
	v, err = s.Submit(SubmitRequest{Tenant: "free", Program: smallSrc, Config: JobConfig{Seed: 1}})
	if err != nil {
		t.Fatalf("free tenant submit: %v", err)
	}
	fv = awaitJob(t, s, v.ID)
	if fv.Status != StatusOK {
		t.Fatalf("free tenant job status %s (%v), want ok", fv.Status, fv.Error)
	}
	if fv.EffectiveLimits.MaxEvents != 0 {
		t.Fatalf("free tenant job got clamped to %d events", fv.EffectiveLimits.MaxEvents)
	}

	st := s.Stats()
	if st.Tenants["free"].Rejected != 0 {
		t.Fatalf("free tenant has %d rejections, want 0", st.Tenants["free"].Rejected)
	}
	if st.Tenants["capped"].Rejected != 1 {
		t.Fatalf("capped tenant has %d rejections, want 1", st.Tenants["capped"].Rejected)
	}
}

// TestQuotaMaxActive: a tenant at its concurrency bound rejects typed
// while another tenant still submits freely.
func TestQuotaMaxActive(t *testing.T) {
	s := newTestService(t, Config{
		Workers: 1,
		Quotas:  map[string]Quota{"busy": {MaxActive: 1}},
	})
	v, err := s.Submit(SubmitRequest{Tenant: "busy", Program: busySrc})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit(SubmitRequest{Tenant: "busy", Program: smallSrc})
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("second submit error = %v (%T), want *QuotaError", err, err)
	}
	if qe.Limit != "max-active" {
		t.Fatalf("limit %q, want max-active", qe.Limit)
	}
	// Another tenant is not blocked by it.
	if _, err := s.Submit(SubmitRequest{Tenant: "other", Program: smallSrc}); err != nil {
		t.Fatalf("other tenant submit: %v", err)
	}
	fv := awaitJob(t, s, v.ID)
	if fv.Status != StatusOK {
		t.Fatalf("busy job finished %s (%v), want ok", fv.Status, fv.Error)
	}
	// Slot freed: the tenant can submit again.
	if _, err := s.Submit(SubmitRequest{Tenant: "busy", Program: smallSrc}); err != nil {
		t.Fatalf("submit after slot freed: %v", err)
	}
}

// TestDeadlineCeilingClamp: a tenant deadline ceiling imposes itself on
// jobs that ask for more (or for no deadline at all).
func TestDeadlineCeilingClamp(t *testing.T) {
	s := newTestService(t, Config{
		Quotas: map[string]Quota{"t": {DeadlineCeiling: 50 * time.Millisecond}},
	})
	v, err := s.Submit(SubmitRequest{Tenant: "t", Program: smallSrc})
	if err != nil {
		t.Fatal(err)
	}
	if v.EffectiveLimits.Deadline != 50*time.Millisecond {
		t.Fatalf("effective deadline %v, want 50ms", v.EffectiveLimits.Deadline)
	}
	v, err = s.Submit(SubmitRequest{Tenant: "t", Program: smallSrc, Config: JobConfig{DeadlineMs: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if v.EffectiveLimits.Deadline != 10*time.Millisecond {
		t.Fatalf("tighter requested deadline clobbered: %v", v.EffectiveLimits.Deadline)
	}
}

// TestGracefulDrain: draining lets queued and running jobs finish, rejects
// new work typed, and is idempotent.
func TestGracefulDrain(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	var ids []string
	for i := 0; i < 6; i++ {
		v, err := s.Submit(SubmitRequest{Program: smallSrc, Config: JobConfig{Seed: uint64(i + 1)}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		v, ok := s.Job(id)
		if !ok || v.Status != StatusOK {
			t.Fatalf("after graceful drain, job %s = %+v, want ok", id, v)
		}
	}
	_, err := s.Submit(SubmitRequest{Program: smallSrc})
	var de *DrainingError
	if !errors.As(err, &de) {
		t.Fatalf("submit while drained error = %v (%T), want *DrainingError", err, err)
	}
	// Idempotent: a second drain returns immediately.
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestForceDrainSalvagesAndTypes: an expired drain context cancels
// in-flight jobs — they land degraded with salvaged partial profiles — and
// fails still-queued jobs with the typed draining error. No job is lost,
// and the store survives listable.
func TestForceDrainSalvagesAndTypes(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	var ids []string
	for i := 0; i < 4; i++ {
		v, err := s.Submit(SubmitRequest{Program: busySrc})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	// Give the first job a moment to start, then force-drain immediately.
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	var degraded, failed int
	for _, id := range ids {
		v, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s lost in drain", id)
		}
		switch v.Status {
		case StatusDegraded:
			degraded++
			found := false
			for _, r := range v.DegradedReasons {
				if r == "interrupted" {
					found = true
				}
			}
			if !found {
				t.Errorf("cancelled job %s reasons %v, want interrupted", id, v.DegradedReasons)
			}
		case StatusFailed:
			failed++
			if v.ErrorKind == "" || v.ErrorClass != "resource" {
				t.Errorf("job %s failed untyped: kind=%q class=%q", id, v.ErrorKind, v.ErrorClass)
			}
		case StatusOK:
			// A job can legitimately finish in the race window.
		default:
			t.Errorf("job %s stuck in %s after drain", id, v.Status)
		}
	}
	if degraded == 0 && failed == 0 {
		t.Error("force drain neither salvaged nor typed-failed any job; the busy jobs all finished — raise the workload")
	}
	// The store is still listable (crash-safety contract).
	if _, err := s.Store().List(); err != nil {
		t.Fatalf("store unlistable after force drain: %v", err)
	}
}

// threadedBusySrc spawns two worker threads right at the top of main and
// joins them. The workers carry all the work, so a drain that lands
// mid-job catches the daemon with live thread goroutines. Spawning first
// matters: even an immediately-cancelled run executes a watchdog-interval
// prefix, so both per-thread sessions deterministically exist by the time
// the run is halted.
const threadedBusySrc = `
class Main {
  public static void main() {
    int h1 = spawn Main.work();
    int h2 = spawn Main.work();
    join h1;
    join h2;
  }
  static void work() {
    int s = 0;
    for (int i = 0; i < 3000000; i++) { s = s + 1; }
    check(s == 3000000);
  }
}`

// TestForceDrainWithInFlightThreads: force-draining while a job has live
// spawned thread goroutines salvages a degraded profile with every thread
// accounted — the per-thread sessions are merged, not dropped, and their
// events are charged. This is the graceful-drain vs. in-flight-spawn
// contract from the threading model.
func TestForceDrainWithInFlightThreads(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	var ids []string
	for i := 0; i < 3; i++ {
		v, err := s.Submit(SubmitRequest{Program: threadedBusySrc})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	// Let the first job reach its spawns, then force-drain.
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	var salvaged int
	for _, id := range ids {
		v, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s lost in drain", id)
		}
		switch v.Status {
		case StatusDegraded:
			salvaged++
			interrupted := false
			for _, r := range v.DegradedReasons {
				if r == "interrupted" {
					interrupted = true
				}
			}
			if !interrupted {
				t.Errorf("salvaged job %s reasons %v, want interrupted", id, v.DegradedReasons)
			}
			if len(v.Profile) == 0 {
				t.Fatalf("salvaged job %s has no profile", id)
			}
			var p struct {
				Threads int `json:"threads"`
			}
			if err := json.Unmarshal(v.Profile, &p); err != nil {
				t.Fatalf("salvaged profile for %s unparsable: %v", id, err)
			}
			if p.Threads != 2 {
				t.Errorf("salvaged job %s accounts %d threads, want 2", id, p.Threads)
			}
			if v.Events == 0 {
				t.Errorf("salvaged job %s charged zero events despite live threads", id)
			}
		case StatusFailed:
			// Still-queued jobs fail typed; they never started a thread.
			if v.ErrorClass != "resource" {
				t.Errorf("queued job %s failed untyped: class=%q", id, v.ErrorClass)
			}
		case StatusOK:
			// Legitimate if the job finished inside the race window.
		default:
			t.Errorf("job %s stuck in %s after drain", id, v.Status)
		}
	}
	if salvaged == 0 {
		t.Error("no job was salvaged mid-threads; the threaded workload finished too fast — raise it")
	}
}

// TestPathsModeRunsWithoutPersist: a paths-mode job completes with a
// profile but no stored run.
func TestPathsModeRunsWithoutPersist(t *testing.T) {
	s := newTestService(t, Config{})
	v, err := s.Submit(SubmitRequest{Program: smallSrc, Config: JobConfig{Mode: "paths"}})
	if err != nil {
		t.Fatal(err)
	}
	if v.Persist {
		t.Fatal("paths-mode job marked persisted")
	}
	fv := awaitJob(t, s, v.ID)
	if fv.Status != StatusOK {
		t.Fatalf("paths job %s (%v), want ok", fv.Status, fv.Error)
	}
	if len(fv.Profile) == 0 {
		t.Fatal("paths job returned no profile")
	}
	names, err := s.Store().List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("paths-mode job persisted runs: %v", names)
	}
}

// TestInvalidSubmissions: validation rejections are typed and nothing is
// admitted.
func TestInvalidSubmissions(t *testing.T) {
	s := newTestService(t, Config{})
	cases := []SubmitRequest{
		{Program: "class { nope"},
		{Program: smallSrc, Config: JobConfig{Mode: "turbo"}},
		{Program: smallSrc, Tenant: "bad tenant name!"},
	}
	for _, req := range cases {
		_, err := s.Submit(req)
		var inv *InvalidJobError
		if !errors.As(err, &inv) {
			t.Fatalf("submit %+v error = %v (%T), want *InvalidJobError", req.Config, err, err)
		}
	}
	if got := len(s.Jobs("")); got != 0 {
		t.Fatalf("%d jobs admitted from invalid submissions", got)
	}
}

// TestRunJobThreadReadsMainArray: jobs run in-process, so a job whose
// spawned thread reads an array main filled must come back with a
// profile, recorded or not, rather than take the daemon down.
func TestRunJobThreadReadsMainArray(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, persist := range []bool{false, true} {
		spec := ExecSpec{ID: fmt.Sprintf("shared-%v", persist), Program: workloads.SharedArrayThread(), Persist: persist}
		out, err := RunJob(context.Background(), st, spec, nil, nil)
		if err != nil {
			t.Fatalf("persist=%v: %v", persist, err)
		}
		if len(out.ProfileJSON) == 0 || out.Degraded {
			t.Fatalf("persist=%v: outcome %+v, want a full profile", persist, out)
		}
	}
}

package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"algoprof"
	"algoprof/internal/trace/store"
)

func newHTTPService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s := newTestService(t, cfg)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestHTTPEndToEnd is the acceptance path: submit over HTTP, get the
// terminal view, and check the persisted run passes the chaos audit (what
// `algoprof verify` runs) with a profile byte-identical to the library
// API's for the same program and config.
func TestHTTPEndToEnd(t *testing.T) {
	s, srv := newHTTPService(t, Config{Workers: 2})

	resp, body := postJSON(t, srv.URL+"/v1/jobs?wait=1", SubmitRequest{
		Tenant:   "acme",
		Workload: "e2e",
		Program:  smallSrc,
		Config:   JobConfig{Seed: 7},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var sr SubmitResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Jobs) != 1 {
		t.Fatalf("got %d jobs, want 1", len(sr.Jobs))
	}
	v := sr.Jobs[0]
	if v.Status != StatusOK {
		t.Fatalf("job status %s (%s), want ok", v.Status, v.Error)
	}

	// Byte identity with the library API (compact wire form).
	want := libraryJSON(t, smallSrc, algoprof.Config{Seed: 7})
	if !bytes.Equal(v.Profile, want) {
		t.Errorf("HTTP job profile differs from library run\nhttp:\n%s\nlib:\n%s", v.Profile, want)
	}

	// The persisted run passes the same audit `algoprof verify` runs:
	// manifest consistent, trace replayable, replay matches the manifest.
	runDir := filepath.Join(s.Store().Dir(), v.ID)
	if findings := store.AuditRun(runDir); len(findings) != 0 {
		t.Fatalf("audit findings on service-recorded run: %v", findings)
	}
	run, err := s.Store().Load(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if run.Manifest.Tenant != "acme" {
		t.Fatalf("persisted tenant %q, want acme", run.Manifest.Tenant)
	}
	if run.Manifest.Workload != "e2e" {
		t.Fatalf("persisted workload %q, want e2e", run.Manifest.Workload)
	}

	// GET endpoints agree.
	jr, err := http.Get(srv.URL + "/v1/jobs/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got JobView
	json.NewDecoder(jr.Body).Decode(&got)
	jr.Body.Close()
	if got.ID != v.ID || got.Status != StatusOK {
		t.Fatalf("GET job = %+v", got)
	}
	lr, err := http.Get(srv.URL + "/v1/jobs?tenant=acme")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobView
	json.NewDecoder(lr.Body).Decode(&list)
	lr.Body.Close()
	if len(list) != 1 {
		t.Fatalf("tenant list has %d jobs, want 1", len(list))
	}

	sresp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	json.NewDecoder(sresp.Body).Decode(&st)
	sresp.Body.Close()
	if st.OK != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v, want 1 ok / 1 completed", st)
	}
}

// TestHTTPStreamNDJSON: the stream endpoint emits NDJSON ending with the
// result event.
func TestHTTPStreamNDJSON(t *testing.T) {
	_, srv := newHTTPService(t, Config{Workers: 1})

	resp, body := postJSON(t, srv.URL+"/v1/jobs", SubmitRequest{Program: busySrc})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var sr SubmitResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	id := sr.Jobs[0].ID

	streamResp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	if ct := streamResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var last Event
	sawStatus := false
	sc := bufio.NewScanner(streamResp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if ev.Type == "status" {
			sawStatus = true
		}
		last = ev
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if last.Type != "result" {
		t.Fatalf("stream ended with %q event, want result", last.Type)
	}
	if last.Result == nil || !last.Result.Status.Terminal() {
		t.Fatalf("stream result = %+v, want terminal", last.Result)
	}
	_ = sawStatus // a fast job may complete before the subscriber attaches
}

// TestHTTPInputSweep: a sweep expands into one job per input vector.
func TestHTTPInputSweep(t *testing.T) {
	_, srv := newHTTPService(t, Config{Workers: 2})
	resp, body := postJSON(t, srv.URL+"/v1/jobs?wait=1", SubmitRequest{
		Program:    smallSrc,
		InputSweep: [][]int64{{1}, {2}, {3}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	var sr SubmitResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Jobs) != 3 || len(sr.Rejected) != 0 {
		t.Fatalf("sweep: %d jobs, %d rejected; want 3/0", len(sr.Jobs), len(sr.Rejected))
	}
	for _, v := range sr.Jobs {
		if v.Status != StatusOK {
			t.Fatalf("sweep job %s: %s (%s)", v.ID, v.Status, v.Error)
		}
	}
}

// TestHTTPErrors: typed rejections map onto status codes and the JSON
// error envelope.
func TestHTTPErrors(t *testing.T) {
	s, srv := newHTTPService(t, Config{
		Quotas: map[string]Quota{"capped": {MaxActive: 1}},
	})

	resp, body := postJSON(t, srv.URL+"/v1/jobs", SubmitRequest{Program: "class { nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad program status %d: %s", resp.StatusCode, body)
	}
	var ae apiError
	json.Unmarshal(body, &ae)
	if ae.Kind != "invalid" {
		t.Fatalf("bad program kind %q", ae.Kind)
	}

	// Fill the capped tenant, then hit its quota.
	resp, body = postJSON(t, srv.URL+"/v1/jobs", SubmitRequest{Tenant: "capped", Program: busySrc})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first capped submit status %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, srv.URL+"/v1/jobs", SubmitRequest{Tenant: "capped", Program: smallSrc})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("quota status %d: %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &ae)
	if ae.Kind != "quota" || ae.Class != "resource" {
		t.Fatalf("quota envelope %+v", ae)
	}

	if resp, err := http.Get(srv.URL + "/v1/jobs/nope"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	// Readiness flips to 503 once draining; liveness stays 200 the whole
	// way — the process is still up, finishing its backlog.
	for _, path := range []string{"/v1/healthz", "/v1/readyz"} {
		hr, err := http.Get(srv.URL + path)
		if err != nil || hr.StatusCode != http.StatusOK {
			t.Fatalf("%s before drain: %v %v", path, hr.StatusCode, err)
		}
		hr.Body.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	s.Drain(ctx)
	hr, err := http.Get(srv.URL + "/v1/readyz")
	if err != nil || hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: %v %v", hr.StatusCode, err)
	}
	hr.Body.Close()
	hr, err = http.Get(srv.URL + "/v1/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz after drain (liveness must survive a drain): %v %v", hr.StatusCode, err)
	}
	hr.Body.Close()

	resp, body = postJSON(t, srv.URL+"/v1/jobs", SubmitRequest{Program: smallSrc})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit status %d: %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &ae)
	if ae.Kind != "draining" {
		t.Fatalf("draining kind %q", ae.Kind)
	}
}

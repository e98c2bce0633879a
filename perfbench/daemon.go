package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"algoprof"
	"algoprof/internal/service"
)

const (
	// clients is the closed loop's client count: each waits for its job's
	// result event before submitting the next, like a caller that needs
	// the profile to go on. Two clients keep both daemon workers busy on
	// a 2-core host without building a backlog.
	clients = 2
	// jobBlock is the job mix's period: 8 job kinds times every 5th job
	// degraded. The loop ends on a whole block, so outcome counts per
	// block repeat exactly.
	jobBlock = 40
	// tightEvents is the max_events every 5th job asks for; the small job
	// consumes several thousand events, so the limit always trips.
	tightEvents = 500
)

// daemonLeg drives an in-process daemon over loopback HTTP with a closed
// loop of clients for at least d, checks every job, and fills the
// daemon's per-layer metrics. It runs inside traced record-replay runs:
// the daemon's timings follow the host too closely to carry a bound (see
// README.md), so it has no untraced workload of its own.
func daemonLeg(o opts, r *run, d time.Duration) error {
	host, err := startDaemon(filepath.Join(o.tmp, "daemon"))
	if err != nil {
		return err
	}
	defer host.stop()
	lib := libProfiles{}
	// Warm up with one job of each kind, one after another.
	for k := 0; k < 8; k++ {
		r.unit(lib.verify(host.job(jobRequest(o.seed, k, fmt.Sprintf("perfbench-warmup-%d", k)))))
	}

	tr := newTracer()
	tr.beginPass()
	results, wall := host.loop(o.seed, d, tr)
	tr.endPass()
	var lat, queue, runMs, backends, deliver, submit []float64
	var degraded, failed, lost, untyped, retried, maxDepth float64
	for _, res := range results {
		err := lib.verify(res)
		r.unit(err)
		retried += float64(res.retries)
		maxDepth = max(maxDepth, float64(res.queueDepth))
		if res.view == nil {
			lost++
			continue
		}
		v := res.view
		switch v.Status {
		case service.StatusDegraded:
			degraded++
		case service.StatusFailed:
			failed++
			if v.ErrorKind == "" || v.ErrorClass == "" || v.ErrorClass == "unknown" {
				untyped++
			}
		}
		if err != nil {
			continue
		}
		l := ms(res.latency)
		lat = append(lat, l)
		submit = append(submit, ms(res.submit))
		queue = append(queue, float64(v.QueueMs))
		runMs = append(runMs, float64(v.RunMs))
		if res.req.Config.AllBackends {
			backends = append(backends, float64(v.RunMs))
		}
		deliver = append(deliver, l-ms(res.submit)-float64(v.QueueMs+v.RunMs))
	}
	r.series["job_ms"] = lat
	r.series["service.submit_ms"] = submit
	r.series["service.queue_ms"] = queue
	r.series["service.run_ms"] = runMs
	r.series["service.deliver_ms"] = deliver

	blocks := float64(len(results)) / jobBlock
	coverage := tr.coverage()
	checkCoverage(r, coverage)
	for k, v := range map[string]float64{
		"jobs_per_s":                  ratio(float64(len(results)), wall.Seconds()),
		"job_ms.p50":                  median(lat),
		"job_ms.p99":                  percentile(lat, 99),
		"trace.coverage":              min(coverage, r.layer["trace.coverage"]),
		"service.submit_ms.p50":       median(submit),
		"service.queue_ms.p50":        median(queue),
		"service.queue_ms.p99":        percentile(queue, 99),
		"service.run_ms.p50":          median(runMs),
		"service.backends_run_ms.p50": median(backends),
		"service.deliver_ms.p50":      median(deliver),
		"service.ok":                  (float64(len(results)) - degraded - failed - lost) / blocks,
		"service.degraded":            degraded / blocks,
		"service.failed":              failed / blocks,
		"service.lost":                lost / blocks,
		"service.untyped":             untyped / blocks,
		"service.retried_submits":     retried / blocks,
		"service.max_queue_depth":     maxDepth,
	} {
		r.layer[k] = v
	}
	return nil
}

// jobRequest is job i of the mix. Per block of 8: five events-mode jobs,
// persisted to the run store; two paths-mode jobs; one events-mode job
// that also runs the all-backends pass. Every 5th job asks for a tight
// event limit and degrades. Jobs alternate between two tenants, and the
// workload label makes every job key distinct.
func jobRequest(seed uint64, i int, label string) service.SubmitRequest {
	req := service.SubmitRequest{
		Tenant:   []string{"tenant-a", "tenant-b"}[i%2],
		Workload: label,
		Program:  daemonProgram.src,
		Config:   service.JobConfig{Seed: derive(seed, uint64(100+i%8))},
	}
	switch i % 8 {
	case 5, 6:
		req.Config.Mode = algoprof.ModePaths
	case 7:
		req.Config.AllBackends = true
	}
	if i%5 == 4 {
		req.Config.MaxEvents = tightEvents
	}
	return req
}

// daemonHost is one in-process daemon served on a loopback listener.
type daemonHost struct {
	svc    *service.Service
	srv    *http.Server
	url    string
	dir    string
	client *http.Client
	served chan error
}

func startDaemon(dir string) (*daemonHost, error) {
	svc, err := service.New(service.Config{StoreDir: dir, Workers: 2})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Drain(context.Background())
		return nil, err
	}
	h := &daemonHost{
		svc:    svc,
		srv:    &http.Server{Handler: svc.Handler()},
		url:    "http://" + ln.Addr().String(),
		dir:    dir,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
		served: make(chan error, 1),
	}
	go func() { h.served <- h.srv.Serve(ln) }()
	return h, nil
}

// stop drains the daemon, shuts the server down, waits for it to return,
// and removes the daemon's store.
func (h *daemonHost) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	h.svc.Drain(ctx)
	err := h.srv.Shutdown(ctx)
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	h.client.CloseIdleConnections()
	if rerr := os.RemoveAll(h.dir); err == nil {
		err = rerr
	}
	return err
}

// jobResult is one job as its client saw it.
type jobResult struct {
	i       int
	req     service.SubmitRequest
	view    *service.JobView // the result event's final view; nil if lost
	submit  time.Duration    // submission round trip, retries included
	latency time.Duration    // submission to result event
	retries int              // typed capacity rejections retried
	// queueDepth is the daemon's queue length right after submission.
	queueDepth int
	err        error
}

// loop runs the closed loop for at least d and until a whole block of
// jobs has completed, and returns the jobs in submission order.
func (h *daemonHost) loop(seed uint64, d time.Duration, tr *tracer) ([]jobResult, time.Duration) {
	var mu sync.Mutex
	next, limit := 0, -1
	var results []jobResult
	start := time.Now()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if limit < 0 && time.Since(start) >= d {
			limit = (next + jobBlock - 1) / jobBlock * jobBlock
		}
		if limit >= 0 && next >= limit {
			return 0, false
		}
		next++
		return next - 1, true
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				s0 := tr.now()
				res := h.job(jobRequest(seed, i, fmt.Sprintf("perfbench-%d", i)))
				res.i = i
				tr.add(span{name: "job", pass: 0, start: s0, end: tr.now()})
				mu.Lock()
				results = append(results, res)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	sort.Slice(results, func(a, b int) bool { return results[a].i < results[b].i })
	return results, wall
}

// job submits one job over HTTP, retrying typed capacity rejections, and
// reads its NDJSON stream until the result event.
func (h *daemonHost) job(req service.SubmitRequest) (res jobResult) {
	res.req = req
	body, err := json.Marshal(req)
	if err != nil {
		res.err = err
		return res
	}
	start := time.Now()
	var id string
	for attempt := 0; id == ""; attempt++ {
		resp, err := h.client.Post(h.url+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			res.err = fmt.Errorf("submit: %w", err)
			return res
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
			res.err = fmt.Errorf("submit: %w", err)
			return res
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
			if attempt >= 50 {
				res.err = fmt.Errorf("submit: still rejected after %d attempts: %s", attempt+1, data)
				return res
			}
			res.retries++
			time.Sleep(time.Duration(attempt+1) * 5 * time.Millisecond)
		case resp.StatusCode != http.StatusAccepted:
			res.err = fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, data)
			return res
		default:
			var sr service.SubmitResponse
			if err := json.Unmarshal(data, &sr); err != nil || len(sr.Jobs) != 1 {
				res.err = fmt.Errorf("submit: bad response %s", data)
				return res
			}
			id = sr.Jobs[0].ID
		}
	}
	res.submit = time.Since(start)
	res.queueDepth = h.svc.Stats().Queued

	resp, err := h.client.Get(h.url + "/v1/jobs/" + id + "/stream")
	if err != nil {
		res.err = fmt.Errorf("stream: %w", err)
		return res
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for res.view == nil && sc.Scan() {
		var ev service.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			res.err = fmt.Errorf("stream: %w", err)
			return res
		}
		if ev.Type == "result" {
			res.view = ev.Result
		}
	}
	res.latency = time.Since(start)
	// Read to the end so the connection goes back to the pool.
	io.Copy(io.Discard, resp.Body)
	if res.view == nil {
		res.err = fmt.Errorf("job %s: stream ended without a result (%v)", id, sc.Err())
	}
	return res
}

// libProfiles caches the library's compact profile JSON per config.
type libProfiles map[string][]byte

// profile returns json.Compact of algoprof.Run's JSON for src under cfg.
func (lib libProfiles) profile(src string, cfg algoprof.Config) ([]byte, error) {
	key, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	if want, ok := lib[string(key)]; ok {
		return want, nil
	}
	prof, err := algoprof.Run(src, cfg)
	if err != nil {
		return nil, fmt.Errorf("library run: %w", err)
	}
	out, err := prof.JSON()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, out); err != nil {
		return nil, err
	}
	lib[string(key)] = buf.Bytes()
	return buf.Bytes(), nil
}

// verify checks one daemon job: it was not lost, it did not fail, it
// degraded exactly when it asked for the tight event limit, and its
// profile bytes equal json.Compact of algoprof.Run's JSON for the same
// program and config.
func (lib libProfiles) verify(res jobResult) error {
	if res.err != nil {
		return res.err
	}
	v := res.view
	if v.Status != service.StatusOK && v.Status != service.StatusDegraded {
		return fmt.Errorf("job %s: status %s (%s/%s): %s", v.ID, v.Status, v.ErrorKind, v.ErrorClass, v.Error)
	}
	tight := res.req.Config.MaxEvents != 0
	if v.Degraded != tight {
		return fmt.Errorf("job %s: degraded=%v with max_events=%d", v.ID, v.Degraded, res.req.Config.MaxEvents)
	}
	want, err := lib.profile(res.req.Program, algoprof.Config{Mode: v.Mode, Seed: res.req.Config.Seed, Limits: v.EffectiveLimits})
	if err != nil {
		return err
	}
	if !bytes.Equal(v.Profile, want) {
		return fmt.Errorf("job %s: daemon profile differs from the library's for the same program and config", v.ID)
	}
	return nil
}

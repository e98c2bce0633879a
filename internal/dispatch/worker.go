package dispatch

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"algoprof/internal/faultinject"
	"algoprof/internal/service"
	"algoprof/internal/trace/store"
)

// DefaultLeaseTTL is the lease a dispatcher grants when its Config leaves
// LeaseTTL zero. Workers heartbeat at a third of the TTL, so a healthy
// slow job renews its lease long before expiry; only a dead worker, a
// severed link, or a stalled stream misses one.
const DefaultLeaseTTL = 2 * time.Second

// maxExecRequestBytes bounds the request body a worker will read — well
// above any real program plus config, well below a memory-exhaustion
// payload.
const maxExecRequestBytes = 16 << 20

// Worker executes dispatched jobs: an HTTP server that runs each
// POST /w/v1/exec job through service.RunJob against a private scratch
// store and streams heartbeats plus the digest-protected result back.
// It is the process behind `algoprofd worker`, and chaos/bench harnesses
// embed it in-process.
//
// The worker is deliberately stateless across jobs: persist jobs record
// into the scratch store, ship their artifact files in the result, and the
// scratch run is discarded — the daemon's store is the only durable one,
// so a worker can crash, restart, or be wiped at any time without losing
// anything the daemon acknowledged.
type Worker struct {
	store *store.Store
	logf  func(string, ...any)

	mu   sync.Mutex
	cond *sync.Cond
	busy map[string]bool

	executed atomic.Int64
}

// NewWorker opens (or creates) the scratch store in dir. logf may be nil.
func NewWorker(dir string, logf func(string, ...any)) (*Worker, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	st.SetLogf(logf)
	w := &Worker{store: st, logf: logf, busy: map[string]bool{}}
	w.cond = sync.NewCond(&w.mu)
	return w, nil
}

// LocalWorker is a Worker serving on an in-process loopback listener, the
// way the chaos sweep and the distributed benchmark run their fleets.
type LocalWorker struct {
	// Host is the listener's host:port; URL is the worker's base URL.
	Host, URL string
	srv       *http.Server
}

// StartLocalWorker boots a Worker with its scratch store in dir.
func StartLocalWorker(dir string) (*LocalWorker, error) {
	w, err := NewWorker(dir, nil)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lw := &LocalWorker{Host: ln.Addr().String(), srv: &http.Server{Handler: w.Handler()}}
	lw.URL = "http://" + lw.Host
	go lw.srv.Serve(ln)
	return lw, nil
}

// Crash kills the worker abruptly: the listener and every active
// connection close immediately, mid-stream — no drain, no goodbye.
func (lw *LocalWorker) Crash() { lw.srv.Close() }

// Executed returns how many jobs this worker has run to a result (tests,
// chaos assertions).
func (w *Worker) Executed() int64 { return w.executed.Load() }

// Handler returns the worker's HTTP API.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /w/v1/exec", w.handleExec)
	mux.HandleFunc("GET /w/v1/healthz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.WriteHeader(http.StatusOK)
		fmt.Fprintln(rw, "ok")
	})
	return mux
}

// lockID serializes executions of one job ID on this worker. A revoked
// lease can leave a zombie attempt still tearing down (its VM halts within
// a few thousand instructions of the request context cancelling) when the
// re-dispatch of the same job lands back on the same worker; the scratch
// run directory is keyed by job ID, so the new attempt waits for the
// zombie to release it instead of colliding.
func (w *Worker) lockID(id string) (unlock func()) {
	w.mu.Lock()
	for w.busy[id] {
		w.cond.Wait()
	}
	w.busy[id] = true
	w.mu.Unlock()
	return func() {
		w.mu.Lock()
		delete(w.busy, id)
		w.cond.Broadcast()
		w.mu.Unlock()
	}
}

// lineWriter serializes NDJSON lines onto the response, flushing each one
// so heartbeats actually reach the dispatcher's lease timer.
type lineWriter struct {
	mu sync.Mutex
	w  io.Writer
	fl http.Flusher
}

func (lw *lineWriter) send(ev wireEvent) {
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	lw.mu.Lock()
	defer lw.mu.Unlock()
	// A write error means the dispatcher is gone (lease revoked, daemon
	// crashed): nothing to do — the job's effects live only in scratch.
	if _, err := lw.w.Write(append(data, '\n')); err == nil {
		lw.fl.Flush()
	}
}

func (w *Worker) handleExec(rw http.ResponseWriter, r *http.Request) {
	var req execRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxExecRequestBytes)).Decode(&req); err != nil {
		// An undecodable request on a trusted wire is damage, not a client
		// bug; 400 classifies as Corruption on the dispatcher side.
		http.Error(rw, "bad exec request: "+err.Error(), http.StatusBadRequest)
		return
	}
	spec := req.Spec
	if spec.ID == "" || spec.Program == "" {
		http.Error(rw, "exec request without job id or program", http.StatusBadRequest)
		return
	}
	ttl := time.Duration(req.LeaseTTLMs) * time.Millisecond
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	fl, ok := rw.(http.Flusher)
	if !ok {
		http.Error(rw, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	rw.Header().Set("Content-Type", "application/x-ndjson")
	rw.WriteHeader(http.StatusOK)
	out := &lineWriter{w: rw, fl: fl}
	// First heartbeat immediately: the dispatcher's lease clock should
	// measure worker liveness, not connection setup.
	out.send(wireEvent{Type: wireHeartbeat})

	var instructions atomic.Uint64
	stop := make(chan struct{})
	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		t := time.NewTicker(heartbeatInterval(ttl))
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				out.send(wireEvent{Type: wireHeartbeat, Instructions: instructions.Load()})
			}
		}
	}()

	unlock := w.lockID(spec.ID)
	if spec.Persist {
		// Clear debris from a revoked earlier attempt of this same job.
		if err := w.store.Discard(spec.ID); err != nil {
			w.logf("worker: discard stale scratch %s: %v", spec.ID, err)
		}
	}
	outcome, err := service.RunJob(r.Context(), w.store, spec, func(n uint64) {
		instructions.Store(n)
	}, w.logf)
	var files map[string][]byte
	if spec.Persist {
		files = w.collectRun(spec.ID)
		if derr := w.store.Discard(spec.ID); derr != nil {
			w.logf("worker: discard scratch %s: %v", spec.ID, derr)
		}
	}
	unlock()
	close(stop)
	hb.Wait()
	w.executed.Add(1)

	res := &resultPayload{Outcome: outcome}
	if err != nil {
		res.Error = err.Error()
		res.ErrorClass = faultinject.ClassOf(err).String()
		// A failed job ships no artifacts: the daemon stores nothing for
		// it, so nothing must look ingestible.
		files = nil
	}
	if files[store.ManifestName] == nil {
		// Without a manifest the run can never list or replay — ship
		// nothing rather than an unusable partial.
		files = nil
	}
	res.Files = files
	res.Digest = res.computeDigest()
	out.send(wireEvent{Type: wireResultEvent, Result: res})
}

// heartbeatInterval renews the lease three times per TTL.
func heartbeatInterval(ttl time.Duration) time.Duration {
	iv := ttl / 3
	if iv < time.Millisecond {
		iv = time.Millisecond
	}
	return iv
}

// collectRun reads the scratch run's files for shipping. Failures degrade
// to an empty map: the dispatcher treats an artifact-less persist result
// as transient and re-executes.
func (w *Worker) collectRun(id string) map[string][]byte {
	dir := filepath.Join(w.store.Dir(), id)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	files := map[string][]byte{}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			w.logf("worker: read artifact %s/%s: %v", id, e.Name(), err)
			return nil
		}
		files[e.Name()] = data
	}
	return files
}

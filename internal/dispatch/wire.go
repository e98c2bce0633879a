// Package dispatch is the daemon's distributed execution layer: it
// implements the service.Executor seam over remote worker processes
// (`algoprofd worker`), so compile-validated jobs admitted by one daemon
// execute on other machines while quotas, the job table, and the
// write-ahead journal stay centralized.
//
// The robustness contract extends the repo's job trichotomy across the
// network: a dispatched job still terminates exactly once as ok, degraded,
// or typed-failed, no matter which combination of worker crashes, network
// partitions, slow links, or silent wire corruption the schedule throws at
// it. The mechanisms, in the order a failing dispatch meets them:
//
//   - Leases: a worker holds a job under a TTL lease renewed by every
//     NDJSON heartbeat it streams back. A missed renewal revokes the lease
//     (the daemon cancels the request, which cancels the worker's VM) and
//     re-dispatches. Re-execution is safe because runs are deterministic —
//     a revoked-then-reissued job reproduces byte-identical artifacts, and
//     store ingestion deduplicates by content.
//   - Typed retry: transport failures and remote transient faults retry on
//     another worker under the jittered faultinject.RetryPolicy backoff;
//     per-worker circuit breakers stop hammering a host that keeps failing.
//   - Corruption quarantine: every result carries a content digest. A
//     digest mismatch, an unparseable stream, or a garbage artifact
//     quarantines the worker permanently and re-executes elsewhere —
//     damaged bytes are never retried against the same host and never
//     ingested.
//   - Graceful degradation: when every worker is quarantined, broken, or
//     unreachable, jobs fall back to the daemon's local executor under
//     their admitted limits. Degraded capacity, never dropped jobs.
package dispatch

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"algoprof/internal/service"
)

// Wire event types on the worker's NDJSON response stream.
const (
	// wireHeartbeat renews the job's lease and carries the approximate
	// executed-instruction count.
	wireHeartbeat = "heartbeat"
	// wireResultEvent terminates the stream with the job's result payload.
	wireResultEvent = "result"
)

// execRequest is the body of POST /w/v1/exec: the admitted job spec,
// verbatim, plus the lease the worker must renew.
type execRequest struct {
	Spec service.ExecSpec `json:"spec"`
	// LeaseTTLMs is the lease TTL in milliseconds: the worker must emit a
	// stream event at least this often or the daemon revokes the job.
	LeaseTTLMs int64 `json:"lease_ttl_ms"`
}

// wireEvent is one NDJSON line on the exec response stream.
type wireEvent struct {
	Type         string         `json:"type"`
	Instructions uint64         `json:"instructions,omitempty"`
	Result       *resultPayload `json:"result,omitempty"`
}

// resultPayload is the terminal event's payload: the job outcome, the
// typed error for remote failures, and — for persist jobs — the recorded
// run's artifact files, shipped back for ingestion into the daemon's
// store. Digest covers the whole payload so any silent wire damage is
// detected before anything is charged or ingested.
type resultPayload struct {
	Outcome *service.ExecOutcome `json:"outcome,omitempty"`
	// Error and ErrorClass describe a remote job-level failure: the
	// message and its faultinject class name. Transport-level failures
	// never reach this payload — they surface as stream errors.
	Error      string `json:"error,omitempty"`
	ErrorClass string `json:"error_class,omitempty"`
	// Files are the run directory's artifacts (manifest, program, traces)
	// keyed by file name, for persist jobs that recorded successfully.
	Files map[string][]byte `json:"files,omitempty"`
	// Digest is the hex SHA-256 over the payload's canonical JSON with
	// this field empty. The dispatcher recomputes it; a mismatch
	// classifies as Corruption and quarantines the worker.
	Digest string `json:"digest,omitempty"`
}

// computeDigest hashes the payload's canonical JSON form (Digest field
// cleared). Go's JSON marshaling is deterministic here — map keys sort,
// RawMessage bytes pass through verbatim — so the worker's digest and the
// dispatcher's recomputation agree exactly when the bytes survived the
// wire.
func (r *resultPayload) computeDigest() string {
	cp := *r
	cp.Digest = ""
	data, err := json.Marshal(&cp)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

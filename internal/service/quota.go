package service

import (
	"fmt"
	"sync"
	"time"

	"algoprof"
	"algoprof/internal/faultinject"
)

// Quota bounds one tenant's use of the service. Zero fields are unlimited.
// Quotas layer on the algoprof.Limits machinery rather than replacing it:
// the per-job caps and the remaining aggregate budgets clamp each job's
// Limits before it runs, so a job brushing against its tenant's budget
// degrades deterministically (PR 4 semantics — sampled series, exact
// totals) instead of being killed mid-flight. Only admission — a tenant
// already at its concurrency bound or with an exhausted budget — rejects,
// and then always with a typed *QuotaError.
type Quota struct {
	// MaxActive bounds the tenant's jobs that are queued or running at
	// once.
	MaxActive int `json:"max_active,omitempty"`
	// MaxRunning bounds the tenant's concurrently running jobs; queued
	// jobs wait their turn without failing.
	MaxRunning int `json:"max_running,omitempty"`
	// MaxEventsPerJob clamps each job's Limits.MaxEvents.
	MaxEventsPerJob uint64 `json:"max_events_per_job,omitempty"`
	// EventBudget bounds the tenant's aggregate profiling events across
	// all its jobs. The remaining budget clamps each new job's
	// Limits.MaxEvents; a spent budget rejects new jobs.
	EventBudget uint64 `json:"event_budget,omitempty"`
	// TraceByteBudget bounds the tenant's aggregate stored trace bytes.
	// The remaining budget clamps each new job's Limits.MaxTraceBytes; a
	// spent budget rejects new jobs.
	TraceByteBudget int64 `json:"trace_byte_budget,omitempty"`
	// DeadlineCeiling clamps each job's Limits.Deadline: a job asking for
	// more (or for no deadline at all) runs under the ceiling.
	DeadlineCeiling time.Duration `json:"deadline_ceiling_ns,omitempty"`
}

// QuotaError reports a submission rejected by a tenant quota. It
// classifies as a Resource fault: the tenant's capacity is exhausted, the
// job was never admitted, retrying later (or with a smaller job) is the
// remedy.
type QuotaError struct {
	// Tenant is the over-quota tenant.
	Tenant string
	// Limit names the exceeded bound ("max-active", "max-running",
	// "event-budget", "trace-byte-budget").
	Limit string
	// Detail quantifies it.
	Detail string
}

// Error implements error.
func (e *QuotaError) Error() string {
	return fmt.Sprintf("service: tenant %q over quota %s: %s", e.Tenant, e.Limit, e.Detail)
}

// FaultClass implements faultinject.Classifier.
func (e *QuotaError) FaultClass() faultinject.FaultClass { return faultinject.Resource }

// tenantState is one tenant's live accounting, guarded by Service.mu.
type tenantState struct {
	quota Quota

	active  int // queued + running jobs
	running int // running jobs

	eventsUsed uint64 // aggregate profiling events charged
	traceUsed  int64  // aggregate trace bytes charged

	submitted int64 // jobs admitted
	rejected  int64 // submissions rejected (quota, queue, drain, intake fault)
}

// TenantStats is one tenant's usage snapshot, served by /v1/stats.
type TenantStats struct {
	Active     int    `json:"active"`
	Running    int    `json:"running"`
	EventsUsed uint64 `json:"events_used"`
	TraceUsed  int64  `json:"trace_bytes_used"`
	Submitted  int64  `json:"submitted"`
	Rejected   int64  `json:"rejected"`
	Quota      Quota  `json:"quota"`
}

// admit checks the admission bounds and reserves an active slot. Caller
// holds Service.mu.
func (t *tenantState) admit(tenant string) error {
	q := t.quota
	if q.MaxActive > 0 && t.active >= q.MaxActive {
		return &QuotaError{Tenant: tenant, Limit: "max-active",
			Detail: fmt.Sprintf("%d jobs queued or running (bound %d)", t.active, q.MaxActive)}
	}
	if q.EventBudget > 0 && t.eventsUsed >= q.EventBudget {
		return &QuotaError{Tenant: tenant, Limit: "event-budget",
			Detail: fmt.Sprintf("%d of %d events spent", t.eventsUsed, q.EventBudget)}
	}
	if q.TraceByteBudget > 0 && t.traceUsed >= q.TraceByteBudget {
		return &QuotaError{Tenant: tenant, Limit: "trace-byte-budget",
			Detail: fmt.Sprintf("%d of %d bytes spent", t.traceUsed, q.TraceByteBudget)}
	}
	t.active++
	t.submitted++
	return nil
}

// clampLimits derives the job's effective Limits from its requested ones:
// per-job caps and remaining budgets tighten, never loosen. Caller holds
// Service.mu.
func (t *tenantState) clampLimits(lim algoprof.Limits) algoprof.Limits {
	q := t.quota
	lim = ClampLimits(lim, algoprof.Limits{MaxEvents: q.MaxEventsPerJob, Deadline: q.DeadlineCeiling})
	var left algoprof.Limits
	if q.EventBudget > 0 {
		left.MaxEvents = q.EventBudget - t.eventsUsed
	}
	if q.TraceByteBudget > 0 {
		left.MaxTraceBytes = q.TraceByteBudget - t.traceUsed
	}
	return ClampLimits(lim, left)
}

// ClampLimits tightens cur by cap, field by field: every cap field that is
// set bounds the corresponding limit, and an unlimited (zero) cur field
// adopts the cap. A clamp never loosens a limit. The quota clamp uses it.
func ClampLimits(cur, cap algoprof.Limits) algoprof.Limits {
	cur.MaxEvents = tighter(cur.MaxEvents, cap.MaxEvents)
	cur.MaxLiveBytes = tighter(cur.MaxLiveBytes, cap.MaxLiveBytes)
	cur.MaxTraceBytes = tighter(cur.MaxTraceBytes, cap.MaxTraceBytes)
	cur.Deadline = tighter(cur.Deadline, cap.Deadline)
	return cur
}

// tighter is the rule for one limit: zero means unlimited, and otherwise
// the smaller value wins. A cap of zero or less sets no bound.
func tighter[T ~uint64 | ~int64](cur, cap T) T {
	if cap > 0 && (cur == 0 || cur > cap) {
		return cap
	}
	return cur
}

// charge books a finished job's consumption against the budgets. Caller
// holds Service.mu.
func (t *tenantState) charge(events uint64, traceBytes int64) {
	t.eventsUsed += events
	t.traceUsed += traceBytes
}

// tenants is the quota table: a default quota plus per-tenant overrides,
// instantiating state lazily.
type tenants struct {
	mu       sync.Mutex
	def      Quota
	explicit map[string]Quota
	state    map[string]*tenantState
}

func newTenants(def Quota, explicit map[string]Quota) *tenants {
	return &tenants{def: def, explicit: explicit, state: map[string]*tenantState{}}
}

// get returns (creating if needed) the tenant's state. Callers synchronize
// through Service.mu; the internal mutex only guards the lazy map.
func (ts *tenants) get(tenant string) *tenantState {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	st, ok := ts.state[tenant]
	if !ok {
		q := ts.def
		if eq, ok := ts.explicit[tenant]; ok {
			q = eq
		}
		st = &tenantState{quota: q}
		ts.state[tenant] = st
	}
	return st
}

// snapshot lists every tenant's stats, for /v1/stats.
func (ts *tenants) snapshot() map[string]TenantStats {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make(map[string]TenantStats, len(ts.state))
	for name, st := range ts.state {
		out[name] = TenantStats{
			Active:     st.active,
			Running:    st.running,
			EventsUsed: st.eventsUsed,
			TraceUsed:  st.traceUsed,
			Submitted:  st.submitted,
			Rejected:   st.rejected,
			Quota:      st.quota,
		}
	}
	return out
}

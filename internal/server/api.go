package server

// Wire types of the pfaird JSON API, shared with internal/client. All
// rational quantities (virtual times, tardiness, utilization) travel as
// exact strings in internal/rat syntax ("7", "3/2") — never as floats —
// so a client can round-trip them without losing the paper's exactness.
//
// encoding/json and these struct tags define the bytes. The eight bodies of
// the request path — SubmitJobRequest, SubmitJobsRequest, AdvanceRequest,
// RegisterTaskRequest and their responses — also have a hand-written codec
// (api_wire.go) that both the server and internal/client run first. The rule
// when one of those eight changes: a new or renamed field goes into its
// append and its scan function and its key list in the same commit.
// TestWireCoversEveryField fails until it has — it sets every field by
// reflection and requires the codec, not the fallback, to produce
// json.Marshal's bytes and read them back — so a forgotten field cannot
// quietly send every body that carries it down the slow path.

// CreateTenantRequest creates a tenant: an isolated online executive on M
// processors under the named priority policy ("PD2" when empty; also
// "PD", "PF", "EPDF").
type CreateTenantRequest struct {
	ID     string `json:"id"`
	M      int    `json:"m"`
	Policy string `json:"policy,omitempty"`
}

// TenantInfo is a point-in-time snapshot of one tenant. PendingM is the
// target of a drain-mode shrink still waiting for utilization to fall (0
// when none is queued).
type TenantInfo struct {
	ID           string `json:"id"`
	M            int    `json:"m"`
	PendingM     int    `json:"pendingM,omitempty"`
	Policy       string `json:"policy"`
	Now          string `json:"now"`          // current virtual time
	Utilization  string `json:"utilization"`  // Σ wt of admitted tasks
	Tasks        int    `json:"tasks"`        // admitted task count
	Pending      int    `json:"pending"`      // released, undispatched subtasks
	Dispatches   int64  `json:"dispatches"`   // decisions made so far
	MaxTardiness string `json:"maxTardiness"` // worst tardiness observed (≤ 1 by Theorem 3)
	Rejections   int64  `json:"rejections"`   // admission rejections so far
}

// RegisterTaskRequest admits a task of weight E/P into a tenant.
type RegisterTaskRequest struct {
	Name string `json:"name"`
	E    int64  `json:"e"`
	P    int64  `json:"p"`
}

// RegisterTaskResponse reports the admission decision. Admitted is false
// when the task would push Σ wt over M; the tenant is unchanged then.
type RegisterTaskResponse struct {
	Admitted  bool   `json:"admitted"`
	Guarantee string `json:"guarantee"`
	Reason    string `json:"reason"`
}

// SubmitJobRequest releases one job (E subtasks) of a registered task. An
// empty At means "at the tenant's current virtual time", which is the
// race-free choice for concurrent clients. Earliness enables early
// releasing by up to that many slots (eq. 6).
//
// Key is an optional client-supplied idempotency key: resubmitting a job
// with a key the tenant has already applied returns the original response
// without applying again, which makes the POST safe to retry after an
// ambiguous failure or a promotion. Keys are remembered per tenant in a
// bounded FIFO (the most recent 4096), journaled with the command, and
// survive crash recovery and replication.
type SubmitJobRequest struct {
	Task      string `json:"task"`
	At        string `json:"at,omitempty"`
	Earliness int64  `json:"earliness,omitempty"`
	Key       string `json:"key,omitempty"`
}

// SubmitJobResponse echoes the effective arrival time.
type SubmitJobResponse struct {
	At      string `json:"at"`
	Pending int    `json:"pending"`
}

// SubmitJobsRequest releases a batch of jobs in one request
// (POST /v1/tenants/{id}/jobs:batch). The batch is atomic: every job is
// validated before any is applied, one bad job rejects the whole batch,
// and on a durable server the batch is journaled as one record — a crash
// keeps all of it or none — and acknowledged after at most one fsync.
type SubmitJobsRequest struct {
	Jobs []SubmitJobRequest `json:"jobs"`
}

// SubmitJobsResponse reports a fully-accepted batch; Results[i] matches
// Jobs[i] of the request.
type SubmitJobsResponse struct {
	Accepted int                 `json:"accepted"`
	Results  []SubmitJobResponse `json:"results"`
}

// ResizeRequest changes a tenant's processor count
// (POST /v1/tenants/{id}/resize). A grow takes effect at the tenant's
// next quantum boundary. A shrink is feasibility-checked: while Σwt
// exceeds the target it is rejected (HTTP 409), or with Drain set queued
// (HTTP 202) — new registrations are then gated by the target and the
// shrink applies at the unregister that brings Σwt within it.
type ResizeRequest struct {
	M     int  `json:"m"`
	Drain bool `json:"drain,omitempty"`
}

// ResizeResponse reports what the resize did: Outcome is "applied",
// "queued", or "rejected"; M is the effective processor count after the
// call and PendingM the queued shrink target, if any.
type ResizeResponse struct {
	Outcome     string `json:"outcome"`
	M           int    `json:"m"`
	PendingM    int    `json:"pendingM,omitempty"`
	Utilization string `json:"utilization"`
	Reason      string `json:"reason"`
}

// AdvanceRequest advances a tenant's virtual time, dispatching work on the
// way. Exactly one of Until (absolute) or By (relative) must be set; By is
// the race-free choice for concurrent clients.
type AdvanceRequest struct {
	Until string `json:"until,omitempty"`
	By    string `json:"by,omitempty"`
}

// AdvanceResponse reports the new virtual time and how many dispatch
// decisions the advance produced.
type AdvanceResponse struct {
	Now        string `json:"now"`
	Dispatched int64  `json:"dispatched"`
	Pending    int    `json:"pending"`
}

// DispatchEvent is one scheduling decision, as streamed by
// GET /v1/tenants/{id}/dispatches (one JSON object per line). Seq is the
// 0-based decision index within the tenant; a stream opened with ?from=N
// replays the log from decision N before following live decisions.
type DispatchEvent struct {
	Seq       int64  `json:"seq"`
	Task      string `json:"task"`
	Index     int64  `json:"index"`
	Proc      int    `json:"proc"`
	Start     string `json:"start"`
	Finish    string `json:"finish"`
	Deadline  int64  `json:"deadline"`
	Tardiness string `json:"tardiness"`
}

// HealthResponse is the body of GET /healthz. Status is "ok", "degraded"
// (recovery, or a follower applying replicated records, saw replay errors
// or dispatch mismatches, or the replication transport is erroring — state
// is being served but warrants attention),
// "bootstrapping" (a follower still loading its snapshot/backlog; served
// with HTTP 503 so routers never send traffic to a cold node), or
// "wal-failed" (the journal wedged; mutations return 503 until restart).
// Role is "leader", "follower", or "candidate"; AppliedLSN the highest
// journal position reflected in served state. ReplicationLagLSN is
// present on followers: how far the leader's durable LSN is ahead (-1
// until first measured). Recovery is present on durable servers and
// describes what the last boot rebuilt from disk.
type HealthResponse struct {
	Status            string        `json:"status"`
	Role              string        `json:"role"`
	Term              uint64        `json:"term,omitempty"`
	AppliedLSN        uint64        `json:"appliedLSN,omitempty"`
	ReplicationLagLSN *int64        `json:"replicationLagLSN,omitempty"`
	Recovery          *RecoveryInfo `json:"recovery,omitempty"`
	// Replicated records that did not apply cleanly since boot, the
	// follower-side twins of Recovery's ReplayErrors / DispatchMismatches.
	ReplicationApplyErrors        int64 `json:"replicationApplyErrors,omitempty"`
	ReplicationDispatchMismatches int64 `json:"replicationDispatchMismatches,omitempty"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Package server implements pfaird, a multi-tenant scheduling service
// over the online executive: each tenant is an isolated PD²-DVQ
// online.Executive (which owns the tenant's Σwt ≤ M admission ledger)
// behind a single-writer event loop fed by a bounded MPSC submit ring, and
// a stdlib net/http JSON API creates tenants, admits tasks, submits jobs,
// advances virtual time, and streams dispatch decisions as
// newline-delimited JSON. The service turns the paper's Theorem 3 into an
// operational contract: every admitted tenant's workload keeps the
// one-quantum tardiness bound, and /metrics exposes the observed maximum
// so the claim is monitorable, not just provable.
//
// Routes:
//
//	GET    /healthz
//	GET    /metrics
//	GET    /debug/pprof/*                       (after EnablePprof)
//	POST   /v1/tenants                          CreateTenantRequest → TenantInfo
//	GET    /v1/tenants                          → []TenantInfo
//	GET    /v1/tenants/{id}                     → TenantInfo
//	DELETE /v1/tenants/{id}
//	POST   /v1/tenants/{id}/tasks               RegisterTaskRequest → RegisterTaskResponse
//	DELETE /v1/tenants/{id}/tasks/{name}
//	POST   /v1/tenants/{id}/jobs                SubmitJobRequest → SubmitJobResponse
//	POST   /v1/tenants/{id}/jobs:batch          SubmitJobsRequest → SubmitJobsResponse
//	POST   /v1/tenants/{id}/advance             AdvanceRequest → AdvanceResponse
//	POST   /v1/tenants/{id}/drain               → AdvanceResponse
//	POST   /v1/tenants/{id}/resize              ResizeRequest → ResizeResponse
//	GET    /v1/tenants/{id}/dispatches          → DispatchEvent per line (chunked)
//	GET    /v1/tenants/{id}/trace               → obs.Event per line (chunked)
//
// The dispatch stream accepts ?from=N to replay the log from decision N
// (default 0) and ?follow=false to stop at the current end of log instead
// of following live decisions. On graceful shutdown (Server.Shutdown) all
// in-flight streams flush whatever the log holds and terminate cleanly.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"desyncpfair/internal/model"
	"desyncpfair/internal/wal"
	"desyncpfair/internal/wire"
)

// nshards is the tenant-registry shard count: tenant operations on
// different tenants contend only on their shard's lock, not a global one.
const nshards = 16

type shard struct {
	mu      sync.RWMutex
	tenants map[string]*Tenant
}

// Server is the pfaird HTTP service. Create one with New, mount
// Handler(), and call Shutdown before closing the listener so in-flight
// dispatch streams drain instead of being cut.
type Server struct {
	shards [nshards]shard
	mux    *http.ServeMux
	obs    *serverObs

	// Durability (nil wal = in-memory server, the New() default). opMu's
	// read side brackets every journaled mutation; compact takes the
	// write side to get a stop-the-world-consistent image of the registry
	// and cmdSeq, the count of enqueued (journaled + applied) commands.
	// Lock order: opMu → shard.mu → wal's own lock (a tenant has no lock:
	// its loop is the only writer). Mutations only *enqueue* their record
	// while holding those locks; the fsync wait happens in mutate after
	// all of them are released, so one request's fsync never blocks other
	// tenants — concurrent waiters coalesce into a single fsync inside
	// wal.Log (group commit).
	wal      *wal.Log
	opMu     sync.RWMutex
	cmdSeq   atomic.Uint64
	recovery *RecoveryInfo

	// Replication / cluster role (replication.go). role defaults to
	// leader so New() keeps PR-1..6 single-node semantics. journaling
	// gates the tenant journal hooks: false on a follower, whose state
	// changes arrive pre-journaled from its leader (ApplyReplicated
	// appends them verbatim instead). appliedLSN is the highest journal
	// LSN reflected in served state; bootstrapping marks a follower that
	// has not yet caught up to its leader's durable tip (healthz answers
	// 503 so routers skip it). replLagLSN / replErr are maintained by the
	// cluster tailer via SetReplicationLag / SetReplicationError.
	// bootstrapFrom is the instant Open marked the node bootstrapping and
	// bootstrapNs how long it then took to catch up (-1 until SetCaughtUp
	// writes it, 0 on a node that never followed); replLogStreams counts
	// the /v1/replication/log streams open on this node right now.
	role           atomic.Int32
	journaling     atomic.Bool
	appliedLSN     atomic.Uint64
	bootstrapping  atomic.Bool
	bootstrapFrom  time.Time
	bootstrapNs    atomic.Int64
	replLagLSN     atomic.Int64
	replErr        atomic.Pointer[string]
	replLogStreams atomic.Int64
	promoteMu      sync.Mutex
	promoteHook    atomic.Pointer[func() error]
	// replApplyErrors / replMismatches count replicated records that did
	// not apply cleanly — commands that failed to re-apply, dispatch records
	// that contradicted the regenerated decisions. ApplyReplicated writes
	// them; /healthz and /metrics read them.
	replApplyErrors atomic.Int64
	replMismatches  atomic.Int64

	// submitRing is the per-tenant command-ring capacity for tenants this
	// server creates (0 = defaultSubmitRing). Set before serving traffic.
	submitRing int

	// Egress stream policy (egress.go): streamMaxLag is the record-count
	// bound past which a following read stream is evicted (0 = never),
	// streamStall the per-write deadline on stream writes (0 = none).
	// Both are set before serving traffic; obs counts what they cut loose.
	streamMaxLag int64
	streamStall  time.Duration

	shutdownOnce sync.Once
	shutdown     chan struct{}
}

// New creates a server with an empty tenant registry.
func New() *Server {
	s := &Server{
		mux:          http.NewServeMux(),
		obs:          newServerObs(),
		streamMaxLag: DefaultStreamMaxLag,
		streamStall:  DefaultStreamStall,
		shutdown:     make(chan struct{}),
	}
	for i := range s.shards {
		s.shards[i].tenants = map[string]*Tenant{}
	}
	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /metrics", s.handleMetrics)
	s.route("POST /v1/tenants", s.handleCreateTenant)
	s.route("GET /v1/tenants", s.handleListTenants)
	s.route("GET /v1/tenants/{id}", s.handleGetTenant)
	s.route("DELETE /v1/tenants/{id}", s.handleDeleteTenant)
	s.route("POST /v1/tenants/{id}/tasks", s.handleRegisterTask)
	s.route("DELETE /v1/tenants/{id}/tasks/{name}", s.handleUnregisterTask)
	s.route("POST /v1/tenants/{id}/jobs", s.handleSubmitJob)
	s.route("POST /v1/tenants/{id}/jobs:batch", s.handleSubmitJobs)
	s.route("POST /v1/tenants/{id}/advance", s.handleAdvance)
	s.route("POST /v1/tenants/{id}/drain", s.handleDrain)
	s.route("POST /v1/tenants/{id}/resize", s.handleResize)
	s.route("GET /v1/tenants/{id}/dispatches", s.handleDispatches)
	s.route("GET /v1/tenants/{id}/trace", s.handleTrace)
	s.route("GET /v1/replication/status", s.handleReplStatus)
	s.route("GET /v1/replication/log", s.handleReplLog)
	s.route("GET /v1/replication/snapshot", s.handleReplSnapshot)
	s.route("POST /v1/cluster/promote", s.handlePromote)
	return s
}

// Handler returns the root handler to mount on an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// SetSubmitRing sets the per-tenant submit-ring capacity for tenants
// created after the call (0 restores the default). A full ring surfaces
// as HTTP 429 backpressure. Like SetClock, call it before serving
// traffic.
func (s *Server) SetSubmitRing(n int) { s.submitRing = n }

// Shutdown begins a graceful stop: dispatch streams flush their logs and
// end, and new streams terminate immediately after their replay. Call it
// before http.Server.Shutdown so stream handlers return and the listener
// can drain. Idempotent.
func (s *Server) Shutdown() {
	s.shutdownOnce.Do(func() { close(s.shutdown) })
}

// route mounts a handler with request timing/counting middleware. The
// route pattern (not the concrete URL) is the metrics label, so
// cardinality stays bounded. Durations come from the injected clock, so
// under an obs.Fake clock the request histograms are deterministic.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.obs.register(pattern)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := s.obs.clock.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		s.obs.observeRequest(pattern, s.obs.clock.Now().Sub(start), sw.status)
	})
}

// statusWriter captures the response status for metrics while passing
// Flush through so chunked streaming keeps working.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() { _ = w.FlushError() }

// FlushError is Flush for http.ResponseController: it reports a flush that
// died on the connection (a stream writer's stall deadline) instead of
// dropping the error.
func (w *statusWriter) FlushError() error {
	return http.NewResponseController(w.ResponseWriter).Flush()
}

// Unwrap lets http.ResponseController reach the underlying writer, so
// stream handlers can arm per-write deadlines through the middleware.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (s *Server) shardOf(id string) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return &s.shards[h.Sum32()%nshards]
}

func (s *Server) tenant(id string) *Tenant {
	sh := s.shardOf(id)
	sh.mu.RLock()
	t := sh.tenants[id]
	sh.mu.RUnlock()
	return t
}

// routeTenant resolves the {id} of a tenant-scoped route, answering 404
// itself when there is no such tenant.
func (s *Server) routeTenant(w http.ResponseWriter, r *http.Request) *Tenant {
	t := s.tenant(r.PathValue("id"))
	if t == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("server: no tenant %q", r.PathValue("id")))
	}
	return t
}

// addTenant installs t unless the id is taken, journaling the creation
// while the shard lock serializes it against racing creates and deletes of
// the same id (so journal order matches applied order). Installation
// attaches the server's observability (trace ring, per-tenant histograms)
// — both the live-create and the recovery-restore path come through here,
// so every served tenant is instrumented.
func (s *Server) addTenant(t *Tenant) (wal.Commit, error) {
	sh := s.shardOf(t.ID())
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.tenants[t.ID()]; dup {
		return wal.Commit{}, fmt.Errorf("server: tenant %q already exists", t.ID())
	}
	commit, err := s.journalRecord(wal.Record{
		Op: wal.OpTenantCreate, Tenant: t.ID(), M: t.snap.Load().m, Policy: t.policy,
	})
	if err != nil {
		return wal.Commit{}, err
	}
	t.attachObs(s.obs)
	sh.tenants[t.ID()] = t
	if s.wal != nil {
		t.SetJournal(s.journalRecord, nil, s.failJournal)
	}
	return commit, nil
}

// removeTenant deletes a tenant through the close protocol: win the
// tenant's close gate (so no further commands are accepted), flush its
// ring backlog (so every accepted command precedes the delete in the
// journal), journal the delete under the shard lock, unlink, and stop the
// loop. It reports whether this call deleted it; the error is a journal
// failure — the close gate then reopens and the tenant remains, fully
// consistent, as if the delete never happened.
func (s *Server) removeTenant(t *Tenant) (bool, wal.Commit, error) {
	id := t.ID()
	if !t.beginClose() {
		// A concurrent delete of the same id won the gate; wait for it and
		// report not-found, exactly as if we had arrived after it.
		<-t.closed
		return false, wal.Commit{}, nil
	}
	t.flushBacklog()
	sh := s.shardOf(id)
	sh.mu.Lock()
	commit, err := s.journalRecord(wal.Record{Op: wal.OpTenantDelete, Tenant: id})
	if err != nil {
		sh.mu.Unlock()
		t.abortClose()
		return true, wal.Commit{}, err
	}
	delete(sh.tenants, id)
	sh.mu.Unlock()
	t.finishClose()
	return true, commit, nil
}

// dropTenant removes and closes a tenant without journaling — the replay
// path, where the delete record is the input, not the output.
func (s *Server) dropTenant(id string) bool {
	sh := s.shardOf(id)
	sh.mu.Lock()
	t := sh.tenants[id]
	delete(sh.tenants, id)
	sh.mu.Unlock()
	if t == nil {
		return false
	}
	t.Close()
	return true
}

// failJournal wedges the journal after a command it holds failed to apply.
// Only the node that journaled the command does: one applying records
// journaled elsewhere or earlier — a follower, recovery — counts the
// failure (applyRecord's caller) and carries on. No-op for in-memory
// servers.
func (s *Server) failJournal(err error) {
	if s.wal != nil && s.journaling.Load() {
		s.wal.Fail(err)
	}
}

// allTenants snapshots the registry in id order.
func (s *Server) allTenants() []*Tenant {
	var out []*Tenant
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, t := range sh.tenants {
			out = append(out, t)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// --- handlers ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Status:     "ok",
		Role:       s.Role().String(),
		AppliedLSN: s.AppliedLSN(),
		Recovery:   s.recovery,
	}
	if s.wal != nil {
		resp.Term = s.wal.Term()
	}
	if s.Role() != RoleLeader {
		lag := s.replLagLSN.Load()
		resp.ReplicationLagLSN = &lag
	}
	resp.ReplicationApplyErrors = s.replApplyErrors.Load()
	resp.ReplicationDispatchMismatches = s.replMismatches.Load()
	status := http.StatusOK
	switch {
	case s.wal != nil && s.wal.Wedged():
		// The journal failed: reads still work but mutations 503.
		resp.Status = "wal-failed"
		status = http.StatusServiceUnavailable
	case s.bootstrapping.Load():
		// A follower that has not yet caught up to its leader's durable
		// tip: reads would serve stale state, so routers must not send
		// traffic here yet. 503 until the tailer reaches the tip.
		resp.Status = "bootstrapping"
		status = http.StatusServiceUnavailable
	case s.replErr.Load() != nil || resp.ReplicationApplyErrors > 0 || resp.ReplicationDispatchMismatches > 0:
		resp.Status = "degraded"
	case s.recovery != nil && (s.recovery.ReplayErrors > 0 || s.recovery.DispatchMismatches > 0):
		resp.Status = "degraded"
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	bp := metricsBufPool.Get().(*[]byte)
	b := s.appendExposition((*bp)[:0])
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(b)
	*bp = b
	metricsBufPool.Put(bp)
}

// appendExposition renders the /metrics page. The family order is fixed —
// the golden exposition test pins it.
func (s *Server) appendExposition(b []byte) []byte {
	tenants := s.allTenants()
	snaps := make([]tenantObsSnap, len(tenants))
	for i, t := range tenants {
		snaps[i] = t.obsSnapshot()
	}
	b = s.obs.appendBuildInfo(b)
	b = s.obs.appendRequestMetrics(b)
	b = appendTenantMetrics(b, snaps)
	b = s.obs.appendObsMetrics(b, snaps)
	return s.appendWALMetrics(b)
}

// metricsBufPool recycles exposition buffers across scrapes: after the
// first scrape warms it, rendering /metrics costs zero allocations per
// sample (every value lands via strconv.Append* into the pooled slice).
var metricsBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 16<<10); return &b },
}

// reply is what a mutation's op hands back to its envelope (mutate).
type reply struct {
	status int        // response status
	body   any        // JSON response body, nil for none
	commit wal.Commit // journal position to wait durable before acknowledging
	// errStatus, when set, is the status of the error returned beside the
	// reply, in place of the route's fallback.
	errStatus int
	// acks > 0 records that many submit→ack latency observations, measured
	// from ackFrom, once the request is durable.
	acks    int
	ackFrom time.Time
}

// mutate is the one envelope every mutating route runs in: the leader
// gate, the route's tenant (404) when it names one, the request body (400)
// when it has one, op under opMu's read side, then — outside every lock,
// so a slow fsync stalls only the requests it acknowledges and concurrent
// waiters park together in the WAL and share one fsync (group commit) —
// the durability wait, the compaction check, and the response. An op
// error answers statusOf(err, fallback).
func (s *Server) mutate(w http.ResponseWriter, r *http.Request, req any, fallback int, op func(t *Tenant) (reply, error)) {
	if !s.gateMutation(w) {
		return
	}
	var t *Tenant
	if r.PathValue("id") != "" {
		if t = s.routeTenant(w, r); t == nil {
			return
		}
	}
	if req != nil && !s.decode(w, r, req) {
		return
	}
	s.opMu.RLock()
	rp, err := op(t)
	s.opMu.RUnlock()
	if err != nil {
		if rp.errStatus != 0 {
			fallback = rp.errStatus
		}
		writeErr(w, statusOf(err, fallback), err)
		return
	}
	if err := s.waitDurable(rp.commit); err != nil {
		writeErr(w, statusOf(err, http.StatusServiceUnavailable), err)
		return
	}
	s.maybeCompact()
	if rp.acks > 0 {
		// Acknowledged: accepted and, on a durable server, journaled. Only
		// successful submissions land in the histogram — rejections are
		// counted elsewhere and would skew the latency series.
		d := s.obs.clock.Now().Sub(rp.ackFrom)
		for i := 0; i < rp.acks; i++ {
			t.observeSubmitAck(d)
		}
	}
	if rp.body == nil {
		w.WriteHeader(rp.status)
		return
	}
	s.writeReply(w, rp.status, rp.body)
}

func (s *Server) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
	var req CreateTenantRequest
	s.mutate(w, r, &req, http.StatusConflict, func(*Tenant) (reply, error) {
		t, err := newTenant(req.ID, req.M, req.Policy, s.submitRing)
		if err != nil {
			return reply{errStatus: http.StatusBadRequest}, err
		}
		commit, err := s.addTenant(t)
		if err != nil {
			t.Close() // never installed; stop its loop goroutine
			return reply{}, err
		}
		return reply{status: http.StatusCreated, body: t.Info(), commit: commit}, nil
	})
}

func (s *Server) handleListTenants(w http.ResponseWriter, r *http.Request) {
	infos := []TenantInfo{}
	for _, t := range s.allTenants() {
		infos = append(infos, t.Info())
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleGetTenant(w http.ResponseWriter, r *http.Request) {
	if t := s.routeTenant(w, r); t != nil {
		writeJSON(w, http.StatusOK, t.Info())
	}
}

func (s *Server) handleDeleteTenant(w http.ResponseWriter, r *http.Request) {
	s.mutate(w, r, nil, http.StatusServiceUnavailable, func(t *Tenant) (reply, error) {
		found, commit, err := s.removeTenant(t)
		if err == nil && !found {
			// A concurrent delete won; answer as if we had arrived after it.
			return reply{errStatus: http.StatusNotFound}, fmt.Errorf("server: no tenant %q", t.ID())
		}
		return reply{status: http.StatusNoContent, commit: commit}, err
	})
}

func (s *Server) handleRegisterTask(w http.ResponseWriter, r *http.Request) {
	var req RegisterTaskRequest
	s.mutate(w, r, &req, http.StatusBadRequest, func(t *Tenant) (reply, error) {
		d, commit, err := t.RegisterTask(req.Name, model.W(req.E, req.P))
		status := http.StatusCreated
		if !d.Admitted {
			// 409: the request was well-formed but capacity says no.
			status = http.StatusConflict
		}
		resp := RegisterTaskResponse{Admitted: d.Admitted, Guarantee: d.Guarantee.String(), Reason: d.Reason}
		return reply{status: status, body: resp, commit: commit}, err
	})
}

func (s *Server) handleUnregisterTask(w http.ResponseWriter, r *http.Request) {
	s.mutate(w, r, nil, http.StatusConflict, func(t *Tenant) (reply, error) {
		commit, err := t.UnregisterTask(r.PathValue("name"))
		return reply{status: http.StatusNoContent, commit: commit}, err
	})
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	start := s.obs.clock.Now()
	var req SubmitJobRequest
	s.mutate(w, r, &req, http.StatusBadRequest, func(t *Tenant) (reply, error) {
		resp, commit, err := t.SubmitJobReq(req)
		return reply{status: http.StatusAccepted, body: resp, commit: commit, acks: 1, ackFrom: start}, err
	})
}

// handleSubmitJobs is the batch submit path: all jobs validate, journal as
// one record, and apply in one tenant command, then the whole batch acks
// after one durability wait.
func (s *Server) handleSubmitJobs(w http.ResponseWriter, r *http.Request) {
	start := s.obs.clock.Now()
	var req SubmitJobsRequest
	s.mutate(w, r, &req, http.StatusBadRequest, func(t *Tenant) (reply, error) {
		if len(req.Jobs) == 0 {
			return reply{}, fmt.Errorf("server: empty batch")
		}
		if len(req.Jobs) > MaxBatchJobs {
			return reply{}, fmt.Errorf("server: batch of %d jobs exceeds %d", len(req.Jobs), MaxBatchJobs)
		}
		resp, commit, err := t.SubmitJobs(req.Jobs)
		// One ack covers the batch; one latency observation per job keeps
		// the submit-ack histogram comparable with the singular path.
		return reply{status: http.StatusAccepted, body: resp, commit: commit, acks: len(resp.Results), ackFrom: start}, err
	})
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	var req AdvanceRequest
	s.mutate(w, r, &req, http.StatusBadRequest, func(t *Tenant) (reply, error) {
		resp, commit, err := t.Advance(req.Until, req.By)
		return reply{status: http.StatusOK, body: resp, commit: commit}, err
	})
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.mutate(w, r, nil, http.StatusConflict, func(t *Tenant) (reply, error) {
		resp, commit, err := t.Drain()
		return reply{status: http.StatusOK, body: resp, commit: commit}, err
	})
}

// handleResize changes a tenant's processor count: 200 applied, 202
// queued behind a drain, 409 rejected (shrink below Σwt without drain).
func (s *Server) handleResize(w http.ResponseWriter, r *http.Request) {
	var req ResizeRequest
	s.mutate(w, r, &req, http.StatusBadRequest, func(t *Tenant) (reply, error) {
		resp, commit, err := t.Resize(req.M, req.Drain)
		status := http.StatusOK
		switch resp.Outcome {
		case "rejected":
			status = http.StatusConflict
		case "queued":
			status = http.StatusAccepted
		}
		return reply{status: status, body: resp, commit: commit}, err
	})
}

// --- plumbing ---

// MaxRequestBody caps a mutation's request body; pfair-router, which buffers
// bodies to be able to resend them, refuses at the same size.
const MaxRequestBody = 1 << 20

// decode reads a mutation's body — all of it, at most MaxRequestBody, into a pooled
// buffer — and decodes it into into: by the hand-written codec when the
// type has one and the bytes are in its plain subset (api_wire.go), else by
// the strict json.Decoder over the same bytes, which defines what is
// accepted, what is refused and in which words.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	buf := wire.GetBuf()
	defer buf.Put()
	err := buf.ReadAll(http.MaxBytesReader(w, r.Body, MaxRequestBody))
	if err == nil {
		switch DecodeWire(buf.B, into) {
		case WireOK:
			return true
		case WireDeclined:
			s.obs.wireDecodeFallbacks.Add(1)
		}
		dec := json.NewDecoder(bytes.NewReader(buf.B))
		dec.DisallowUnknownFields()
		err = dec.Decode(into)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("server: bad request body: %v", err))
		return false
	}
	return true
}

// writeReply is writeJSON for a mutation's reply: the same bytes, from the
// hand-written codec when the body is one of its types and its strings are
// plain.
func (s *Server) writeReply(w http.ResponseWriter, status int, v any) {
	buf := wire.GetBuf()
	defer buf.Put()
	b, res := AppendWire(buf.B, v)
	if res != WireOK {
		if res == WireDeclined {
			s.obs.wireEncodeFallbacks.Add(1)
		}
		writeJSON(w, status, v)
		return
	}
	buf.B = append(b, '\n') // Encoder.Encode ends the value with a newline
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.B) // a client that hung up is not this request's to report, as in writeJSON
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	switch status {
	case http.StatusTooManyRequests:
		// Ring-full backpressure: the loop drains in microseconds, so an
		// immediate retry with the client's own backoff is right.
		w.Header().Set("Retry-After", "0")
	case http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"desyncpfair/internal/client"
	"desyncpfair/internal/model"
	"desyncpfair/internal/online"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/server"
	"desyncpfair/internal/wal"
)

// The traced pass. End-to-end numbers are measured with tracing off; this
// pass, at a quarter of the operation count, prices the layers without
// touching the program: it re-runs the workload over HTTP with a span
// around every client call, then replays the identical operation sequence
// in-process at successively deeper public entry points — ServeHTTP (no
// socket, no client), server.Tenant (no HTTP, no JSON), online.Executive
// (no ring, no journal) — timing wal.Log from the journal hooks it hands
// the tenant. A layer's self time is its level's duration minus the levels
// beneath it.

// pfaird's shipped flush policy. The journal replay (walReplay) and the
// smoke test's in-process servers run under it. The handler and tenant
// levels journal with fsync and compaction off instead: with one fsync per
// 64 records a workload that journals ~32 records per round pays it on
// every other request, its median sits on the edge of two modes, and a
// difference of such medians means nothing. The fsync wait is measured on
// its own, by replaying the journal the tenant level captured.
const (
	defaultFsyncEvery    = 64
	defaultFsyncMaxDelay = 100 * time.Millisecond
	never                = 1 << 30 // records per fsync / per snapshot: not in this run
)

func tracedPass(ctx context.Context, L launcher, cfg config, name string, scale float64) (*pass, error) {
	// One generated workload serves every pass and level: plans are
	// read-only once built, which is what makes the sequences identical.
	w, err := generate(name, cfg.seed, scale)
	if err != nil {
		return nil, err
	}
	o := runOpts{workDir: cfg.workDir, setups: 1}
	plain, err := runHTTP(ctx, L, w, o)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	o.trace = true
	if w.routed {
		o.closing = failover
	}
	ps, err := runHTTP(ctx, L, w, o)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	ps.attempted += plain.attempted
	ps.failed += plain.failed
	ps.errs = append(ps.errs, plain.errs...)
	m := ps.m

	// The operation whose budget is summed: the single submit where the
	// workload has one, else the batch.
	op, jobs := kSubmit, 1.0
	if p := w.plans()[0]; p.batch {
		op, jobs = kBatch, float64(len(p.rounds[0]))
	}
	roundTrip := p50us(ps.recs, op)
	m["trace.overhead_share"] = (roundTrip - p50us(plain.recs, op)) / p50us(plain.recs, op)

	probe, err := probeClient(ctx, L, len(w.clients))
	if err != nil {
		return nil, fmt.Errorf("client probe: %w", err)
	}
	m["client.submit_self_us"] = probe.submitUs
	m["client.advance_self_us"] = probe.advanceUs

	hop := 0.0
	if w.routed {
		direct, err := runHTTP(ctx, L, w, runOpts{workDir: cfg.workDir, setups: 1, direct: true})
		if err != nil {
			return nil, fmt.Errorf("direct pass: %w", err)
		}
		hop = roundTrip - p50us(direct.recs, op)
		m["cluster.router_hop_us"] = hop
		m["cluster.replica_survives_compaction"] = survivesCompaction(ctx, L, cfg)
	}

	lv, err := replayLevels(w, cfg.workDir, ps.snapshot)
	if err != nil {
		return nil, err
	}
	for _, r := range lv.recs() {
		ps.spans = append(ps.spans, r.spans...)
		ps.attempted += r.ops + r.checks
		ps.failed += r.failed + r.checkFailed
		ps.errs = append(ps.errs, r.errs...)
	}
	for k, v := range lv.m {
		m[k] = v
	}

	// Self times of the submit operation: each level minus the levels
	// beneath it. handler − tenant is HTTP and JSON; tenant − journal −
	// engine is the ring hop, validation, idempotency and bookkeeping.
	appendUs := p50childUs(lv.tenant, op)
	httpSelf := p50us(lv.handler, op) - p50us(lv.tenant, op)
	engineUs := p50us(lv.engine, op)
	tenantSelf := p50us(lv.tenant, op) - appendUs - engineUs
	walUs := appendUs + m["wal.wait_us"] // the command's appends plus the amortised fsync wait
	if op == kSubmit {
		m["server.http_submit_self_us"] = httpSelf
	} else {
		m["server.http_batch_self_us_per_job"] = httpSelf / jobs
	}
	m["tenant.submit_self_us"] = tenantSelf / jobs
	m["online.submit_ns"] = engineUs * 1e3 / jobs
	accounted := probe.submitUs + hop + httpSelf + tenantSelf + walUs + engineUs
	m["trace.unaccounted_share"] = 1 - accounted/roundTrip
	ps.notes = append(ps.notes, fmt.Sprintf(
		"%s budget (p50 us): round trip %.1f = client %.1f + router %.1f + http %.1f + tenant %.1f + wal %.1f + online %.1f + unaccounted %.1f",
		kindNames[op], roundTrip, probe.submitUs, hop, httpSelf, tenantSelf, walUs, engineUs, roundTrip-accounted))

	// Advance, by totals: the engine's share is what wide_sched is about.
	var decisions float64
	for _, r := range lv.engine {
		for _, d := range r.dispatched {
			decisions += float64(d)
		}
	}
	engineNs := sumLat(lv.engine, kAdvance)
	m["server.http_advance_self_us"] = p50us(lv.handler, kAdvance) - p50us(lv.tenant, kAdvance)
	m["online.decisions"] = decisions
	m["online.decision_ns"] = engineNs / decisions
	m["online.advance_share"] = engineNs / sumLat(ps.recs, kAdvance)
	m["tenant.advance_self_us_per_dispatch"] = (sumLat(lv.tenant, kAdvance) - sumChild(lv.tenant, kAdvance) - engineNs) / decisions / 1e3

	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, name, ps.spans); err != nil {
			return nil, err
		}
		ps.notes = append(ps.notes, fmt.Sprintf("%d spans written to %s", len(ps.spans), cfg.traceOut))
	}
	return ps, nil
}

func p50us(recs []*recorder, k opKind) float64 {
	var all []int64
	for _, r := range recs {
		all = append(all, r.lat[k]...)
	}
	return float64(pctl(all, 0.5)) / 1e3
}

func p50childUs(recs []*recorder, k opKind) float64 {
	var all []int64
	for _, r := range recs {
		all = append(all, r.child[k]...)
	}
	return float64(pctl(all, 0.5)) / 1e3
}

func sumLat(recs []*recorder, k opKind) float64 {
	var n int64
	for _, r := range recs {
		for _, d := range r.lat[k] {
			n += d
		}
	}
	return float64(n)
}

func sumChild(recs []*recorder, k opKind) float64 {
	var n int64
	for _, r := range recs {
		for _, d := range r.child[k] {
			n += d
		}
	}
	return float64(n)
}

// writeSpans writes the in-memory spans once, at the end of the run.
func writeSpans(path, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, sp := range spans {
		if err := enc.Encode(struct {
			span
			Workload string `json:"workload"`
		}{sp, workload}); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// --- client probe ---

type clientProbe struct{ submitUs, advanceUs float64 }

// probeClient prices everything outside the handler — internal/client,
// both ends of net/http, the loopback socket, the process switch — by
// sending submit- and advance-shaped requests for a tenant that does not
// exist (refused with a 404 before any work) to a live pfaird from as
// many concurrent clients as the workload has, and subtracting what the
// same refusal costs through ServeHTTP in-process.
func probeClient(ctx context.Context, L launcher, clients int) (clientProbe, error) {
	const n = 1500
	nd, err := L.pfaird(serverSpec{})
	if err != nil {
		return clientProbe{}, err
	}
	defer nd.kill()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer hc.CloseIdleConnections()
	if err := waitHealthy(ctx, hc, nd.url); err != nil {
		return clientProbe{}, err
	}
	c := client.New(nd.url, hc)
	refused := func(err error) bool {
		var ae *client.APIError
		return errors.As(err, &ae) && ae.Status == http.StatusNotFound
	}
	var mu sync.Mutex
	var submits, advances []int64
	var firstErr error
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s, a []int64
			for j := 0; j < n; j++ {
				t0 := nowNs()
				_, err := c.SubmitJobKeyed(ctx, "nobody", server.SubmitJobRequest{Task: "t0", Key: "r0j0"})
				t1 := nowNs()
				_, err2 := c.AdvanceBy(ctx, "nobody", "8")
				t2 := nowNs()
				if !refused(err) || !refused(err2) {
					mu.Lock()
					firstErr = fmt.Errorf("probe expected two 404s, got %v and %v", err, err2)
					mu.Unlock()
					return
				}
				s, a = append(s, t1-t0), append(a, t2-t1)
			}
			mu.Lock()
			submits, advances = append(submits, s...), append(advances, a...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return clientProbe{}, firstErr
	}
	// The same two refusals with no socket and no client.
	h := &handlerTarget{h: server.New().Handler()}
	var hs, ha []int64
	for j := 0; j < n; j++ {
		ot, _ := h.do(http.MethodPost, "/v1/tenants/nobody/jobs", server.SubmitJobRequest{Task: "t0", Key: "r0j0"}, nil)
		hs = append(hs, ot.t1-ot.t0)
		ot, _ = h.do(http.MethodPost, "/v1/tenants/nobody/advance", server.AdvanceRequest{By: "8"}, nil)
		ha = append(ha, ot.t1-ot.t0)
	}
	return clientProbe{
		submitUs:  float64(pctl(submits, 0.5)-pctl(hs, 0.5)) / 1e3,
		advanceUs: float64(pctl(advances, 0.5)-pctl(ha, 0.5)) / 1e3,
	}, nil
}

// --- cluster probes ---

// failover runs after the routed load, while the cluster is still up: it
// kills the leader and times how long the router takes to acknowledge a
// keyed submit again (detection, promotion of the follower, retry).
func failover(ctx context.Context, hc *http.Client, cl *rig, ps *pass) {
	rec := newRecorder(0, lvHTTP, false)
	t := newHTTPTarget(ctx, cl.entry, hc, rec)
	p := &plan{id: "failover", m: 1, tasks: []taskSpec{{"t0", model.W(1, 8)}}}
	if err := prepare(t, p, rec); err != nil {
		ps.notes = append(ps.notes, fmt.Sprintf("failover probe: set-up failed: %v", err))
		return
	}
	// The follower must hold the tenant before its leader dies.
	lead, _ := replStatus(ctx, hc, cl.leader.url)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if fol, err := replStatus(ctx, hc, cl.follower.url); err == nil && fol.AppliedLSN >= lead.WrittenLSN {
			break
		}
	}
	cl.leader.kill()
	t0 := time.Now()
	for time.Since(t0) < 10*time.Second {
		if _, err := t.submit(p, "t0", "after-failover"); err == nil {
			ps.m["cluster.failover_ms"] = float64(time.Since(t0)) / 1e6
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	ps.notes = append(ps.notes, "failover probe: no acknowledged submit within 10s of killing the leader")
}

// survivesCompaction is the 0/1 probe behind the routed workload's
// -snapshot-every exception: the same traffic with pfaird's default
// -snapshot-every, long enough for the leader to compact once. 1 means
// the follower still caught up afterwards.
func survivesCompaction(ctx context.Context, L launcher, cfg config) float64 {
	// ≈ 18 journal records per round; 165 rounds on each of the two
	// tenants pass 4096 with room.
	w, _ := generate("routed_replica", cfg.seed, 165.0/routedRounds)
	ps, err := runHTTP(ctx, L, w, runOpts{workDir: cfg.workDir, setups: 1, snapshotEvery: 4096})
	if err != nil || ps.failed > 0 || ps.m["wal.snapshots"] == 0 {
		return 0
	}
	return 1
}

// --- in-process levels ---

type levels struct {
	handler, tenant, engine []*recorder // one per client
	m                       map[string]float64
}

func (lv *levels) recs() []*recorder {
	return append(append(append([]*recorder(nil), lv.handler...), lv.tenant...), lv.engine...)
}

// replayLevels applies the workload's operation sequence, client after
// client, at each in-process depth.
func replayLevels(w *workload, workDir string, snapshot []byte) (*levels, error) {
	lv := &levels{m: map[string]float64{}}
	run := func(lv level, t target) []*recorder {
		var recs []*recorder
		for i, stages := range w.clients {
			rec := newRecorder(i, lv, true)
			_ = runStages(t, stages, rec, false) // the error is in rec.errs
			recs = append(recs, rec)
		}
		return recs
	}

	// Level 1: Server.Handler().ServeHTTP.
	dir, err := os.MkdirTemp(workDir, "bench-levels-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	srv := server.New()
	if w.durable {
		if srv, err = server.Open(server.Options{DataDir: dir + "/handler", FsyncEvery: never, FsyncMaxDelay: -1, SnapshotEvery: never}); err != nil {
			return nil, err
		}
	}
	ht := &handlerTarget{h: srv.Handler()}
	var stopFollow func()
	if w.follow {
		ht.onCreate = func(p *plan) { stopFollow = ht.follow(p.id) }
	}
	lv.handler = run(lvHandler, ht)
	if stopFollow != nil {
		stopFollow()
	}
	ht.endState(lv.m, keptPlan(w))
	_ = srv.Close() // the final snapshot of a throw-away data dir

	// Level 2: server.Tenant, journaling into a wal.Log of our own.
	tt := &tenantTarget{tenants: map[string]*server.Tenant{}, follow: w.follow}
	if w.durable {
		if tt.log, _, err = wal.Open(dir+"/tenant", wal.Options{FsyncEvery: never}); err != nil {
			return nil, err
		}
	}
	lv.tenant = run(lvTenant, tt)
	lv.m["admission.register_us"] = p50us(lv.tenant, kRegister)
	for _, tn := range tt.tenants {
		tn.Close() // the kept ones
	}
	if tt.log != nil {
		_ = tt.log.Close()
		if err := walReplay(dir, tt.calls, snapshot, lv.m); err != nil {
			return nil, err
		}
	}

	// Level 3: online.Executive.
	et := &engineTarget{ex: map[string]*online.Executive{}, tasks: map[string]map[string]*model.Task{}}
	lv.engine = run(lvEngine, et)
	lv.m["online.checkpoint_ms"] = float64(pctl(et.checkpointNs, 0.5)) / 1e6
	return lv, nil
}

func keptPlan(w *workload) *plan {
	for _, p := range w.plans() {
		if p.keep {
			return p
		}
	}
	return nil
}

func mean(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s int64
	for _, x := range v {
		s += x
	}
	return float64(s) / float64(len(v))
}

// journalCall is one call the tenant level made into its journal hooks:
// a single record, a frame group, or (wait) the point where the handler
// would wait for the command to be durable.
type journalCall struct {
	recs  []wal.Record
	batch bool
	wait  bool
}

// walReplay feeds a fresh wal.Log, under pfaird's default flush policy,
// the same records in the same grouping the workload journaled, timing
// each call; then it times one Compact with the workload's end-state
// snapshot as payload, and the durable-ack probe.
func walReplay(dir string, calls []journalCall, snapshot []byte, m map[string]float64) error {
	log, _, err := wal.Open(dir+"/replay", wal.Options{FsyncEvery: defaultFsyncEvery, FsyncMaxDelay: defaultFsyncMaxDelay})
	if err != nil {
		return err
	}
	defer log.Close()
	var appendNs, batchNsPerRec, waitNs []int64
	var last wal.Commit
	for _, c := range calls {
		t0 := nowNs()
		switch {
		case c.wait:
			err = log.Wait(last)
			waitNs = append(waitNs, nowNs()-t0)
		case c.batch:
			last, err = log.AppendBatch(c.recs)
			batchNsPerRec = append(batchNsPerRec, (nowNs()-t0)/int64(len(c.recs)))
		default:
			last, err = log.AppendAsync(c.recs[0])
			appendNs = append(appendNs, nowNs()-t0)
		}
		if err != nil {
			return fmt.Errorf("journal replay: %w", err)
		}
	}
	m["wal.append_ns"] = float64(pctl(appendNs, 0.5))
	m["wal.batch_append_ns_per_record"] = float64(pctl(batchNsPerRec, 0.5))
	// A mean, not a median: under the default policy most waits return at
	// once and one in ~64 records pays the fsync for all of them.
	m["wal.wait_us"] = mean(waitNs) / 1e3
	if len(snapshot) > 0 {
		t0 := nowNs()
		if err := log.Compact(snapshot); err != nil {
			return fmt.Errorf("compact probe: %w", err)
		}
		m["wal.compact_ms"] = float64(nowNs()-t0) / 1e6
	}
	m["wal.durable_ack_us"], err = durableAck(dir + "/durable")
	return err
}

// durableAck times append + wait with FsyncEvery = 1: what an
// acknowledgement would cost if it had to be durable. It measures the
// sandbox's disk, not a device.
func durableAck(dir string) (float64, error) {
	log, _, err := wal.Open(dir, wal.Options{FsyncEvery: 1})
	if err != nil {
		return 0, err
	}
	defer log.Close()
	var ns []int64
	for i := 0; i < 100; i++ {
		t0 := nowNs()
		c, err := log.AppendAsync(wal.Record{Op: wal.OpJobSubmit, Tenant: "probe", Name: "t0", At: "0"})
		if err == nil {
			err = log.Wait(c)
		}
		if err != nil {
			return 0, err
		}
		ns = append(ns, nowNs()-t0)
	}
	return float64(pctl(ns, 0.5)) / 1e3, nil
}

// --- level 1: the HTTP handler, no socket, no client ---

type handlerTarget struct {
	h        http.Handler
	onCreate func(p *plan)
}

// do marshals outside the span and times ServeHTTP alone.
func (t *handlerTarget) do(method, path string, in, out any) (opTime, error) {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return opTime{}, err
		}
		body = bytes.NewReader(buf)
	}
	req := httptest.NewRequest(method, path, body)
	rw := httptest.NewRecorder()
	t0 := nowNs()
	t.h.ServeHTTP(rw, req)
	ot := opTime{t0: t0, t1: nowNs()}
	if rw.Code >= 300 {
		return ot, fmt.Errorf("%s %s: HTTP %d: %s", method, path, rw.Code, bytes.TrimSpace(rw.Body.Bytes()))
	}
	if out != nil {
		return ot, json.Unmarshal(rw.Body.Bytes(), out)
	}
	return ot, nil
}

func (t *handlerTarget) create(p *plan) (opTime, error) {
	ot, err := t.do(http.MethodPost, "/v1/tenants", server.CreateTenantRequest{ID: p.id, M: p.m}, nil)
	if err == nil && t.onCreate != nil {
		t.onCreate(p)
	}
	return ot, err
}

func (t *handlerTarget) register(p *plan, ts taskSpec) (opTime, error) {
	return t.do(http.MethodPost, "/v1/tenants/"+p.id+"/tasks", server.RegisterTaskRequest{Name: ts.name, E: ts.w.E, P: ts.w.P}, nil)
}

func (t *handlerTarget) submit(p *plan, task, key string) (opTime, error) {
	return t.do(http.MethodPost, "/v1/tenants/"+p.id+"/jobs", server.SubmitJobRequest{Task: task, Key: key}, nil)
}

func (t *handlerTarget) submitBatch(p *plan, tasks []string) (opTime, error) {
	return t.do(http.MethodPost, "/v1/tenants/"+p.id+"/jobs:batch", server.SubmitJobsRequest{Jobs: batchOf(tasks)}, nil)
}

func (t *handlerTarget) advance(p *plan, by int64) (opTime, error) {
	var resp server.AdvanceResponse
	ot, err := t.do(http.MethodPost, "/v1/tenants/"+p.id+"/advance", server.AdvanceRequest{By: strconv.FormatInt(by, 10)}, &resp)
	ot.dispatched = resp.Dispatched
	return ot, err
}

func (t *handlerTarget) drain(p *plan) (opTime, error) {
	var resp server.AdvanceResponse
	ot, err := t.do(http.MethodPost, "/v1/tenants/"+p.id+"/drain", nil, &resp)
	ot.dispatched = resp.Dispatched
	return ot, err
}

func (t *handlerTarget) info(p *plan) (server.TenantInfo, opTime, error) {
	var info server.TenantInfo
	ot, err := t.do(http.MethodGet, "/v1/tenants/"+p.id, nil, &info)
	return info, ot, err
}

func (t *handlerTarget) remove(p *plan) (opTime, error) {
	return t.do(http.MethodDelete, "/v1/tenants/"+p.id, nil, nil)
}

// sink is a ResponseWriter that counts what a stream writes and keeps
// nothing.
type sink struct {
	hdr     http.Header
	bytes   int64
	lines   int64
	flushed chan struct{} // closed on the first Flush
	once    sync.Once
}

func newSink() *sink { return &sink{hdr: http.Header{}, flushed: make(chan struct{})} }

func (s *sink) Header() http.Header { return s.hdr }
func (s *sink) WriteHeader(int)     {}
func (s *sink) Write(b []byte) (int, error) {
	s.bytes += int64(len(b))
	s.lines += int64(bytes.Count(b, []byte("\n")))
	return len(b), nil
}
func (s *sink) Flush() { s.once.Do(func() { close(s.flushed) }) }

// follow attaches a live dispatch-stream subscriber, as stream_tail's
// reader does over HTTP, so the loop encodes frames eagerly at this level
// too. The returned func detaches it.
func (t *handlerTarget) follow(tenant string) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/v1/tenants/"+tenant+"/dispatches?from=0&follow=true", nil).WithContext(ctx)
	s := newSink()
	done := make(chan struct{})
	go func() {
		defer close(done)
		t.h.ServeHTTP(s, req)
	}()
	<-s.flushed // the handler subscribes right after flushing its headers
	return func() { cancel(); <-done }
}

// endState takes the probes that want the handler level's final state:
// the /metrics scrape, the allocation count of one submit, and — where a
// tenant was kept — one full replay of its dispatch log.
func (t *handlerTarget) endState(m map[string]float64, kept *plan) {
	var render []int64
	for i := 0; i < 21; i++ {
		req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
		rw := httptest.NewRecorder()
		t0 := nowNs()
		t.h.ServeHTTP(rw, req)
		render = append(render, nowNs()-t0)
		m["server.metrics_bytes"] = float64(rw.Body.Len())
	}
	m["server.metrics_render_us"] = float64(pctl(render, 0.5)) / 1e3

	if kept != nil {
		req := httptest.NewRequest(http.MethodGet, "/v1/tenants/"+kept.id+"/dispatches?from=0&follow=false", nil)
		s := newSink()
		t0 := nowNs()
		t.h.ServeHTTP(s, req)
		if el := nowNs() - t0; s.lines > 0 {
			m["egress.replay_self_us_per_frame"] = float64(el) / 1e3 / float64(s.lines)
			m["egress.bytes_per_frame"] = float64(s.bytes) / float64(s.lines)
		}
	}

	// Allocations of one keyed submit through the handler: requests and
	// recorders are built first, so only ServeHTTP is counted.
	const n = 200
	p := &plan{id: "allocs", m: 1}
	if _, err := t.create(p); err != nil {
		return
	}
	if _, err := t.register(p, taskSpec{"t0", model.W(1, 8)}); err != nil {
		return
	}
	reqs := make([]*http.Request, n)
	rws := make([]*httptest.ResponseRecorder, n)
	for i := range reqs {
		body, _ := json.Marshal(server.SubmitJobRequest{Task: "t0", Key: "a" + strconv.Itoa(i)})
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/tenants/allocs/jobs", bytes.NewReader(body))
		rws[i] = httptest.NewRecorder()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range reqs {
		t.h.ServeHTTP(rws[i], reqs[i])
	}
	runtime.ReadMemStats(&after)
	m["server.allocs_per_submit"] = float64(after.Mallocs-before.Mallocs) / n
	_, _ = t.remove(p)
}

// --- level 2: server.Tenant, no HTTP, no JSON ---

type tenantTarget struct {
	log     *wal.Log // nil for the in-memory workloads
	tenants map[string]*server.Tenant
	follow  bool

	// The journal hooks run on the tenant's loop goroutine while the
	// caller waits for the command, so these need no lock: the command's
	// completion orders the writes before the caller's reads.
	hookNs int64         // time in journal calls during the current command
	calls  []journalCall // every journal call, in order, for walReplay
}

func (t *tenantTarget) create(p *plan) (opTime, error) {
	t0 := nowNs()
	tn, err := server.NewTenant(p.id, p.m, "")
	ot := opTime{t0: t0, t1: nowNs()}
	if err != nil {
		return ot, err
	}
	if t.log != nil {
		tn.SetJournal(
			func(r wal.Record) (wal.Commit, error) {
				t0 := nowNs()
				c, err := t.log.AppendAsync(r)
				t.hookNs += nowNs() - t0
				t.calls = append(t.calls, journalCall{recs: []wal.Record{r}})
				return c, err
			},
			func(rs []wal.Record) (wal.Commit, error) {
				t0 := nowNs()
				c, err := t.log.AppendBatch(rs)
				t.hookNs += nowNs() - t0
				if len(rs) > 0 {
					// A copy: the tenant reuses the slice for its next group.
					t.calls = append(t.calls, journalCall{recs: append([]wal.Record(nil), rs...), batch: true})
				}
				return c, err
			},
			func(err error) { t.log.Fail(err) },
		)
	}
	if t.follow {
		tn.Subscribe() // eager frame encoding, as with stream_tail's live reader
	}
	t.tenants[p.id] = tn
	return ot, nil
}

// call times one tenant command, reporting the journal appends inside it
// as child time, and marks where the handler would wait for durability.
func (t *tenantTarget) call(f func() (wal.Commit, error)) (opTime, error) {
	t.hookNs = 0
	t0 := nowNs()
	c, err := f()
	ot := opTime{t0: t0, t1: nowNs(), child: t.hookNs}
	if c.LSN != 0 {
		t.calls = append(t.calls, journalCall{wait: true})
	}
	return ot, err
}

func (t *tenantTarget) register(p *plan, ts taskSpec) (opTime, error) {
	return t.call(func() (wal.Commit, error) {
		d, c, err := t.tenants[p.id].RegisterTask(ts.name, ts.w)
		if err == nil && !d.Admitted {
			err = fmt.Errorf("task %s not admitted: %s", ts.name, d.Reason)
		}
		return c, err
	})
}

func (t *tenantTarget) submit(p *plan, task, key string) (opTime, error) {
	return t.call(func() (wal.Commit, error) {
		_, c, err := t.tenants[p.id].SubmitJobReq(server.SubmitJobRequest{Task: task, Key: key})
		return c, err
	})
}

func (t *tenantTarget) submitBatch(p *plan, tasks []string) (opTime, error) {
	jobs := batchOf(tasks)
	return t.call(func() (wal.Commit, error) {
		_, c, err := t.tenants[p.id].SubmitJobs(jobs)
		return c, err
	})
}

func (t *tenantTarget) advance(p *plan, by int64) (opTime, error) {
	var resp server.AdvanceResponse
	ot, err := t.call(func() (c wal.Commit, err error) {
		resp, c, err = t.tenants[p.id].Advance("", strconv.FormatInt(by, 10))
		return c, err
	})
	ot.dispatched = resp.Dispatched
	return ot, err
}

func (t *tenantTarget) drain(p *plan) (opTime, error) {
	var resp server.AdvanceResponse
	ot, err := t.call(func() (c wal.Commit, err error) {
		resp, c, err = t.tenants[p.id].Drain()
		return c, err
	})
	ot.dispatched = resp.Dispatched
	return ot, err
}

func (t *tenantTarget) info(p *plan) (server.TenantInfo, opTime, error) {
	t0 := nowNs()
	info := t.tenants[p.id].Info()
	return info, opTime{t0: t0, t1: nowNs()}, nil
}

func (t *tenantTarget) remove(p *plan) (opTime, error) {
	t0 := nowNs()
	t.tenants[p.id].Close()
	delete(t.tenants, p.id)
	return opTime{t0: t0, t1: nowNs()}, nil
}

// --- level 3: online.Executive, no ring, no journal ---

type engineTarget struct {
	ex           map[string]*online.Executive
	tasks        map[string]map[string]*model.Task
	checkpointNs []int64
}

func (t *engineTarget) create(p *plan) (opTime, error) {
	t0 := nowNs()
	t.ex[p.id] = online.New(p.m, nil)
	t.tasks[p.id] = map[string]*model.Task{}
	return opTime{t0: t0, t1: nowNs()}, nil
}

func (t *engineTarget) register(p *plan, ts taskSpec) (opTime, error) {
	t0 := nowNs()
	task, err := t.ex[p.id].Register(ts.name, ts.w)
	t.tasks[p.id][ts.name] = task
	return opTime{t0: t0, t1: nowNs()}, err
}

func (t *engineTarget) submit(p *plan, task, _ string) (opTime, error) {
	ex, tk := t.ex[p.id], t.tasks[p.id][task]
	t0 := nowNs()
	err := ex.SubmitJob(tk, ex.Now())
	return opTime{t0: t0, t1: nowNs()}, err
}

func (t *engineTarget) submitBatch(p *plan, tasks []string) (opTime, error) {
	ex, byName := t.ex[p.id], t.tasks[p.id]
	t0 := nowNs()
	for _, name := range tasks {
		if err := ex.SubmitJob(byName[name], ex.Now()); err != nil {
			return opTime{t0: t0, t1: nowNs()}, err
		}
	}
	return opTime{t0: t0, t1: nowNs()}, nil
}

func (t *engineTarget) advance(p *plan, by int64) (opTime, error) {
	ex := t.ex[p.id]
	before := ex.Schedule().Len()
	until := ex.Now().Add(rat.FromInt(by))
	t0 := nowNs()
	err := ex.Run(until, nil, nil)
	t1 := nowNs()
	n := int64(ex.Schedule().Len() - before)
	return opTime{t0: t0, t1: t1, dispatched: n}, err
}

func (t *engineTarget) drain(p *plan) (opTime, error) {
	ex := t.ex[p.id]
	before := ex.Schedule().Len()
	t0 := nowNs()
	_, err := ex.Drain(nil)
	ot := opTime{t0: t0, t1: nowNs(), dispatched: int64(ex.Schedule().Len() - before)}
	c0 := nowNs()
	_ = ex.Checkpoint()
	t.checkpointNs = append(t.checkpointNs, nowNs()-c0)
	return ot, err
}

func (t *engineTarget) info(p *plan) (server.TenantInfo, opTime, error) {
	ex := t.ex[p.id]
	t0 := nowNs()
	info := server.TenantInfo{
		ID:           p.id,
		Dispatches:   int64(ex.Schedule().Len()),
		Pending:      ex.Pending(),
		MaxTardiness: ex.Schedule().MaxTardiness().String(),
	}
	return info, opTime{t0: t0, t1: nowNs()}, nil
}

func (t *engineTarget) remove(p *plan) (opTime, error) {
	delete(t.ex, p.id)
	delete(t.tasks, p.id)
	return opTime{}, nil
}

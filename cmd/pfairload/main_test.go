package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"desyncpfair/internal/server"
)

// The acceptance run: ≥ 10k submit+advance requests against an in-process
// server, across multiple tenants, with latency percentiles reported.
// 4 tenants × 4 tasks × 500 jobs = 8000 submits + 2000 advances (one per
// 4 submits) = 10000 timed requests.
func TestLoadTenThousandRequests(t *testing.T) {
	var out strings.Builder
	rep, err := run(config{
		tenants:      4,
		tasks:        4,
		jobs:         500,
		workers:      8,
		m:            2,
		advanceEvery: 4,
		policy:       "PD2",
	}, &out)
	if err != nil {
		t.Fatalf("load run failed: %v\n%s", err, out.String())
	}
	timed := 4*4*500 + 4*4*500/4
	if timed < 10000 {
		t.Fatalf("test is mis-sized: only %d timed requests", timed)
	}
	if rep.Requests < timed {
		t.Errorf("report counts %d requests, want ≥ %d", rep.Requests, timed)
	}
	if rep.Throughput <= 0 {
		t.Errorf("non-positive throughput %f", rep.Throughput)
	}
	if rep.P50 <= 0 || rep.P50 > rep.P99 || rep.P99 > rep.Max {
		t.Errorf("implausible percentiles p50=%v p99=%v max=%v", rep.P50, rep.P99, rep.Max)
	}
	// Every submitted job is one subtask (E=1); all must get dispatched.
	if want := int64(4 * 4 * 500); rep.Dispatched != want {
		t.Errorf("dispatched %d subtasks, want %d", rep.Dispatched, want)
	}
	if rep.MaxTardiness != "0" && !strings.Contains(rep.MaxTardiness, "/") && rep.MaxTardiness != "1" {
		t.Errorf("suspicious max tardiness %q", rep.MaxTardiness)
	}
	// The server-side histogram saw exactly the successful submits, and
	// its interpolated percentiles are ordered like any quantiles.
	if want := uint64(4 * 4 * 500); rep.SrvCount != want {
		t.Errorf("server-side ack count %d, want %d", rep.SrvCount, want)
	}
	if rep.SrvP50 < 0 || rep.SrvP50 > rep.SrvP90 || rep.SrvP90 > rep.SrvP99 {
		t.Errorf("implausible server percentiles p50=%v p90=%v p99=%v", rep.SrvP50, rep.SrvP90, rep.SrvP99)
	}
	// The server times itself from inside the handler, so its view of the
	// median cannot exceed the client's round-trip median by more than the
	// top finite bucket bound (the estimate's worst-case error).
	if rep.SrvP50 > rep.P50+66*time.Millisecond {
		t.Errorf("server p50 %v far above client p50 %v", rep.SrvP50, rep.P50)
	}
	for _, want := range []string{"latency p50/p90/p99", "server ack p50/p90/p99", "req/s", "max tardiness", "tenant m", "resize-rejected"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report output missing %q:\n%s", want, out.String())
		}
	}
	// The summary reports measured capacity: one pfaird_tenant_m gauge per
	// tenant, each still at the -m the run created it with (no resizes).
	if len(rep.TenantM) != 4 {
		t.Errorf("TenantM has %d entries, want 4: %v", len(rep.TenantM), rep.TenantM)
	}
	for id, m := range rep.TenantM {
		if m != 2 {
			t.Errorf("tenant %s reports m=%d, want 2", id, m)
		}
	}
	if rep.ResizeRejected != 0 {
		t.Errorf("%d resize rejections in a run with no resizes", rep.ResizeRejected)
	}
}

// TestBatchLoadRun drives the same acceptance workload through the batch
// submit path (-batch 5): every job still dispatches exactly once, so the
// batch API is equivalent to singular submits under load.
func TestBatchLoadRun(t *testing.T) {
	var out strings.Builder
	rep, err := run(config{
		tenants:      2,
		tasks:        4,
		jobs:         100,
		workers:      4,
		m:            2,
		advanceEvery: 5,
		batch:        5,
		policy:       "PD2",
	}, &out)
	if err != nil {
		t.Fatalf("batch load run failed: %v\n%s", err, out.String())
	}
	if want := int64(2 * 4 * 100); rep.Dispatched != want {
		t.Errorf("dispatched %d subtasks, want %d", rep.Dispatched, want)
	}
	// The server-side histogram records one ack latency per job, batched or
	// not, so the two modes stay comparable.
	if want := uint64(2 * 4 * 100); rep.SrvCount != want {
		t.Errorf("server-side ack count %d, want %d", rep.SrvCount, want)
	}
}

// TestTransportReusesConnections pins the shared-transport fix: with
// `workers` concurrent requests over three rounds, the pool must serve
// rounds two and three from kept-alive connections instead of redialing —
// the default transport's per-host idle cap of 2 would open fresh
// connections on nearly every request at high concurrency and exhaust
// ephemeral ports on long runs.
func TestTransportReusesConnections(t *testing.T) {
	const workers = 16
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	tr := newTransport(workers)
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}

	var dials atomic.Int64
	trace := &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if !info.Reused {
				dials.Add(1)
			}
		},
	}
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		// A barrier per round: all workers in flight at once, so the round
		// genuinely needs `workers` connections, and later rounds prove
		// they were kept alive rather than redialed.
		release := make(chan struct{})
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-release
				ctx := httptrace.WithClientTrace(context.Background(), trace)
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := hc.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}()
		}
		close(release)
		wg.Wait()
	}
	// 3 rounds × 16 concurrent requests: every dial beyond the worker count
	// means the pool dropped a reusable connection.
	if got := dials.Load(); got > workers {
		t.Errorf("%d new connections across 3×%d requests; the transport is not reusing connections", got, workers)
	}
}

// TestResizeRejectedCountedSeparately: submits answered 409 (capacity
// withdrawn by a resize racing the load) must be counted on their own
// line, not lumped into 429 backpressure, and must not abort the run.
// A middleware in front of a real server rejects the first five submits
// the way a shrinking tenant would.
func TestResizeRejectedCountedSeparately(t *testing.T) {
	srv := server.New()
	defer srv.Shutdown()
	h := srv.Handler()
	var submits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/jobs") {
			if submits.Add(1) <= 5 {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusConflict)
				w.Write([]byte(`{"error":"capacity shrink in progress"}`))
				return
			}
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	var out strings.Builder
	rep, err := run(config{
		addr: ts.URL, tenants: 1, tasks: 2, jobs: 6, workers: 1, m: 1,
		advanceEvery: 3, batch: 1, policy: "PD2", seed: 1,
	}, &out)
	if err != nil {
		t.Fatalf("run aborted on resize rejection: %v\n%s", err, out.String())
	}
	if rep.ResizeRejected != 5 {
		t.Errorf("ResizeRejected = %d, want 5", rep.ResizeRejected)
	}
	if rep.Backpressure != 0 {
		t.Errorf("409s leaked into the backpressure counter: %d", rep.Backpressure)
	}
	// 12 attempted submits, 5 rejected: the 7 accepted jobs (E=1 each)
	// all dispatch on drain.
	if rep.Dispatched != 7 {
		t.Errorf("dispatched %d subtasks, want 7", rep.Dispatched)
	}
	if !strings.Contains(out.String(), "resize-rejected    : 5 × 409") {
		t.Errorf("summary does not report the rejections:\n%s", out.String())
	}
}

func TestPercentile(t *testing.T) {
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v", got)
	}
	sorted := make([]time.Duration, 100)
	for i := range sorted {
		sorted[i] = time.Duration(i+1) * time.Millisecond
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 50 * time.Millisecond},
		{0.90, 90 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
		{1.00, 100 * time.Millisecond},
	} {
		if got := percentile(sorted, tc.q); got != tc.want {
			t.Errorf("percentile(q=%g) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

// TestSeedInSummary: the worker-shuffle seed must be printed so any run
// can be reproduced from its own output.
func TestSeedInSummary(t *testing.T) {
	var out strings.Builder
	_, err := run(config{
		tenants: 1, tasks: 2, jobs: 4, workers: 2, m: 1,
		advanceEvery: 2, batch: 1, policy: "PD2", seed: 37,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "seed               : 37") {
		t.Fatalf("summary does not print the seed:\n%s", out.String())
	}
}

// TestScenarioMode: -scenario swaps the synthetic loop for a declarative
// workload driven through the same in-process server, reporting per-class
// tardiness and the Jain index instead of latency percentiles.
func TestScenarioMode(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	spec := []byte(`{
  "name": "loadscen", "seed": 9, "m": 2, "horizon": 24,
  "classes": [{"name": "gold", "maxTardiness": "0"}],
  "cohorts": [{
    "name": "web", "clients": 2, "class": "gold",
    "tasks": [{"name": "a", "e": 1, "p": 4}],
    "arrival": {"process": "poisson", "mean": "5"}
  }]
}`)
	if err := os.WriteFile(specPath, spec, 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	rep, err := run(config{
		tenants: 1, tasks: 1, jobs: 1, workers: 1, m: 1,
		advanceEvery: 1, batch: 1, scenario: specPath,
	}, &out)
	if err != nil {
		t.Fatalf("scenario run: %v\n%s", err, out.String())
	}
	for _, want := range []string{"scenario    loadscen", "jain index", "class gold"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("scenario output missing %q:\n%s", want, out.String())
		}
	}
	if rep.Dispatched == 0 {
		t.Fatal("scenario run dispatched nothing")
	}
	// The -seed override must reshape the workload deterministically.
	var a, b, c strings.Builder
	if _, err := run(config{scenario: specPath, seed: 5, seedSet: true, tenants: 1, tasks: 1, jobs: 1, workers: 1, m: 1, advanceEvery: 1, batch: 1}, &a); err != nil {
		t.Fatal(err)
	}
	if _, err := run(config{scenario: specPath, seed: 5, seedSet: true, tenants: 1, tasks: 1, jobs: 1, workers: 1, m: 1, advanceEvery: 1, batch: 1}, &b); err != nil {
		t.Fatal(err)
	}
	if _, err := run(config{scenario: specPath, seed: 6, seedSet: true, tenants: 1, tasks: 1, jobs: 1, workers: 1, m: 1, advanceEvery: 1, batch: 1}, &c); err != nil {
		t.Fatal(err)
	}
	norm := func(s string) string { // the loopback port differs per run
		lines := strings.SplitN(s, "\n", 2)
		return lines[len(lines)-1]
	}
	if norm(a.String()) != norm(b.String()) {
		t.Fatalf("same seed produced different scenario reports:\n%s\n---\n%s", a.String(), b.String())
	}
	if norm(a.String()) == norm(c.String()) {
		t.Fatal("different seeds produced identical scenario reports")
	}
}

// TestStreamsFanout runs the fan-out mode: every follower must consume
// the tenant's full dispatch log (the server encodes each decision once
// and every follower reads the same cached frames), so the total frame
// count is exactly dispatches × streams-per-tenant.
func TestStreamsFanout(t *testing.T) {
	var out strings.Builder
	rep, err := run(config{
		tenants:      2,
		tasks:        2,
		jobs:         50,
		workers:      4,
		m:            2,
		advanceEvery: 4,
		policy:       "PD2",
		streams:      3,
	}, &out)
	if err != nil {
		t.Fatalf("fan-out run failed: %v\n%s", err, out.String())
	}
	if want := int64(2 * 2 * 50); rep.Dispatched != want {
		t.Fatalf("dispatched %d, want %d", rep.Dispatched, want)
	}
	if want := rep.Dispatched * 3; rep.StreamFrames != want {
		t.Errorf("followers consumed %d frames, want %d (full fan-out)", rep.StreamFrames, want)
	}
	if rep.StreamRate <= 0 {
		t.Errorf("non-positive stream rate %f", rep.StreamRate)
	}
	if rep.StreamLagP50 > rep.StreamLagP99 || rep.StreamLagP99 > rep.StreamLagMax {
		t.Errorf("implausible lag percentiles p50=%d p99=%d max=%d",
			rep.StreamLagP50, rep.StreamLagP99, rep.StreamLagMax)
	}
	for _, want := range []string{"streams            : 3/tenant", "stream lag p50/p90/p99"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunAgainstTargetWithoutMetrics: pfair-router proxies the API but
// serves no /metrics. A 404 there must not fail a run whose load already
// went through — the summary says the server-side numbers are missing and
// the client-side ones stand.
func TestRunAgainstTargetWithoutMetrics(t *testing.T) {
	srv := server.New()
	defer srv.Shutdown()
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			http.NotFound(w, r)
			return
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	var out strings.Builder
	rep, err := run(config{
		addr: ts.URL, tenants: 1, tasks: 2, jobs: 6, workers: 1, m: 1,
		advanceEvery: 3, batch: 1, policy: "PD2", seed: 1,
	}, &out)
	if err != nil {
		t.Fatalf("run failed on a 404 from /metrics: %v\n%s", err, out.String())
	}
	if !rep.NoServerMetrics || rep.SrvCount != 0 || len(rep.TenantM) != 0 {
		t.Errorf("report claims server-side metrics it cannot have: %+v", rep)
	}
	if rep.Dispatched != 12 {
		t.Errorf("dispatched %d subtasks, want 12", rep.Dispatched)
	}
	if !strings.Contains(out.String(), "no server-side metrics") {
		t.Errorf("summary does not say the server-side metrics are missing:\n%s", out.String())
	}
}

// TestDefaultLoadIsFeasible: the default pattern is a closed loop — every
// submit is paid for by one slot of its tenant's time — so the load phase
// does the run's scheduling and a tenant's final drain has only the last
// windows left. One worker keeps a tenant's tasks in step, and the drain
// moves virtual time by at most 2·K slots: K for a last job's window, K
// for the offset a task picks up when its first job lands after the
// iteration's earlier advances. Several workers drift apart, and a task
// whose worker lags is shifted right by the drift for good; the drain then
// has that much left, still a small part of the run. The loop this
// replaced advanced one slot per -advance-every submits and left three
// quarters of the run to the drain, whatever the workers.
func TestDefaultLoadIsFeasible(t *testing.T) {
	const tenants, tasks, jobs = 2, 4, 100
	for _, tc := range []struct {
		workers int
		bound   int64
	}{{1, 2 * tasks}, {4, tasks * jobs / 2}} {
		srv := server.New()
		h := srv.Handler()
		var mu sync.Mutex
		moved := map[string]string{} // drain path → "now before it, now after"
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost || !strings.HasSuffix(r.URL.Path, "/drain") {
				h.ServeHTTP(w, r)
				return
			}
			now := func(rec *httptest.ResponseRecorder) string {
				var body struct{ Now string }
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
					t.Errorf("%s: %v in %q", r.URL.Path, err, rec.Body.String())
				}
				return body.Now
			}
			before, after := httptest.NewRecorder(), httptest.NewRecorder()
			h.ServeHTTP(before, httptest.NewRequest(http.MethodGet, strings.TrimSuffix(r.URL.Path, "/drain"), nil))
			h.ServeHTTP(after, r)
			mu.Lock()
			moved[r.URL.Path] = now(before) + " " + now(after)
			mu.Unlock()
			w.WriteHeader(after.Code)
			w.Write(after.Body.Bytes())
		}))
		var out strings.Builder
		rep, err := run(config{
			addr: ts.URL, tenants: tenants, tasks: tasks, jobs: jobs, workers: tc.workers, m: 2,
			advanceEvery: 4, batch: 1, policy: "PD2", seed: 1,
		}, &out)
		ts.Close()
		srv.Shutdown()
		if err != nil {
			t.Fatalf("%d workers: load run failed: %v\n%s", tc.workers, err, out.String())
		}
		if want := int64(tenants * tasks * jobs); rep.Dispatched != want {
			t.Errorf("%d workers: dispatched %d subtasks, want %d", tc.workers, rep.Dispatched, want)
		}
		if len(moved) != tenants {
			t.Fatalf("%d workers: saw %d drains, want %d: %v", tc.workers, len(moved), tenants, moved)
		}
		for path, m := range moved {
			var before, after int64
			if _, err := fmt.Sscanf(m, "%d %d", &before, &after); err != nil {
				t.Fatalf("%s: virtual time %q: %v", path, m, err)
			}
			if before != tasks*jobs {
				t.Errorf("%d workers, %s: the load phase left virtual time at %d, want one slot per submit = %d", tc.workers, path, before, tasks*jobs)
			}
			if after-before > tc.bound {
				t.Errorf("%d workers, %s: the drain moved virtual time %d → %d, more than %d slots: the load phase left the scheduling to it",
					tc.workers, path, before, after, tc.bound)
			}
		}
	}
}

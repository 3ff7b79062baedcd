package server_test

// Deterministic observability harness. Every test here injects an
// obs.Fake clock that advances a fixed step per read, which makes each
// exposed duration an exact function of the request sequence: the full
// /metrics page can be compared against a golden file byte for byte, and
// every trace event's timestamp arithmetic can be checked exactly. The
// golden is regenerated with `go test ./internal/server -run Golden -update`.

import (
	"bufio"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"context"

	"desyncpfair/internal/client"
	"desyncpfair/internal/hop/hoptest"
	"desyncpfair/internal/model"
	"desyncpfair/internal/obs"
	"desyncpfair/internal/server"
	"desyncpfair/internal/wal"
)

var update = flag.Bool("update", false, "rewrite golden files")

// newObsServer opens a durable server on a fake millisecond clock with
// pinned build info, so its /metrics output depends only on the request
// sequence driven through it.
func newObsServer(t testing.TB) *server.Server {
	t.Helper()
	srv, err := server.Open(server.Options{
		DataDir:    t.TempDir(),
		FsyncEvery: 1,
		// The idle-flush timer runs on the real clock; disable it so fsync
		// counts depend only on the request sequence under the fake clock.
		FsyncMaxDelay: -1,
		Clock:         obs.NewFake(time.Unix(1700000000, 0), time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetBuildInfo(obs.BuildInfo{Version: "v-test", Revision: "0000000", GoVersion: "go-test"})
	t.Cleanup(func() { srv.Close() })
	return srv
}

// obsWorkload is the fixed request script behind the golden exposition:
// two tenants, an admission rejection (for the error counter), jobs,
// integral and fractional advances, and a drain — every family the page
// exposes ends up non-trivial.
func obsWorkload() []cmd {
	return []cmd{
		{"POST", "/v1/tenants", server.CreateTenantRequest{ID: "acme", M: 2}},
		{"POST", "/v1/tenants", server.CreateTenantRequest{ID: "zeta", M: 1}},
		{"POST", "/v1/tenants/acme/tasks", server.RegisterTaskRequest{Name: "web", E: 1, P: 2}},
		{"POST", "/v1/tenants/acme/tasks", server.RegisterTaskRequest{Name: "db", E: 2, P: 3}},
		{"POST", "/v1/tenants/acme/tasks", server.RegisterTaskRequest{Name: "over", E: 1, P: 1}}, // rejected: 13/6 > 2
		{"POST", "/v1/tenants/zeta/tasks", server.RegisterTaskRequest{Name: "cron", E: 1, P: 4}},
		{"POST", "/v1/tenants/acme/jobs", server.SubmitJobRequest{Task: "web"}},
		{"POST", "/v1/tenants/acme/jobs", server.SubmitJobRequest{Task: "db"}},
		{"POST", "/v1/tenants/acme/advance", server.AdvanceRequest{By: "2"}},
		{"POST", "/v1/tenants/acme/jobs", server.SubmitJobRequest{Task: "web"}},
		{"POST", "/v1/tenants/acme/advance", server.AdvanceRequest{By: "1/2"}},
		{"POST", "/v1/tenants/zeta/jobs", server.SubmitJobRequest{Task: "cron"}},
		{"POST", "/v1/tenants/zeta/advance", server.AdvanceRequest{By: "4"}},
		{"POST", "/v1/tenants/acme/drain", nil},
		{"GET", "/healthz", nil},
		{"GET", "/v1/tenants/acme", nil},
	}
}

// TestMetricsGoldenExposition drives the fixed workload sequentially
// through the handler and compares the complete /metrics page against the
// golden file. Sequential requests on the fake clock leave nothing to
// vary: a byte of drift means an exposition change, which is exactly what
// the test is for. The page is then run through the package's own strict
// parser, so well-formedness (single HELP/TYPE per family, no reopened or
// duplicated families, internally consistent histograms) is pinned too.
func TestMetricsGoldenExposition(t *testing.T) {
	srv := newObsServer(t)
	h := srv.Handler()
	for i, c := range obsWorkload() {
		code := doCmd(t, h, c)
		wantOK := code >= 200 && code < 300
		if c.path == "/v1/tenants/acme/tasks" && c.body.(server.RegisterTaskRequest).Name == "over" {
			wantOK = code == http.StatusConflict
		}
		if !wantOK {
			t.Fatalf("workload step %d (%s %s): status %d", i, c.method, c.path, code)
		}
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", rw.Code)
	}
	got := rw.Body.String()

	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from golden:\n%s", firstDiff(string(want), got))
	}

	ex, err := obs.ParseExposition(got)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if err := ex.Check(); err != nil {
		t.Fatalf("exposition is malformed: %v", err)
	}
	// Four successful submits landed in the aggregate ack histogram, and
	// each tenant's share reassembles from its labelled series.
	agg, err := ex.Histogram("pfaird_submit_ack_seconds", nil)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != 4 {
		t.Errorf("aggregate submit-ack count %d, want 4", agg.Count)
	}
	acme, err := ex.Histogram("pfaird_tenant_submit_ack_seconds", []obs.Label{{Name: "tenant", Value: "acme"}})
	if err != nil {
		t.Fatal(err)
	}
	zeta, err := ex.Histogram("pfaird_tenant_submit_ack_seconds", []obs.Label{{Name: "tenant", Value: "zeta"}})
	if err != nil {
		t.Fatal(err)
	}
	if acme.Count != 3 || zeta.Count != 1 {
		t.Errorf("per-tenant submit-ack counts %d/%d, want 3/1", acme.Count, zeta.Count)
	}
	if agg.Sum != acme.Sum+zeta.Sum {
		t.Errorf("aggregate sum %g != tenant sums %g + %g", agg.Sum, acme.Sum, zeta.Sum)
	}
	// Theorem 3 in a histogram: every dispatch lag is ≤ 1 quantum, so the
	// le="1" bucket equals the count.
	lag, err := ex.Histogram("pfaird_dispatch_lag_quanta", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lag.Count == 0 {
		t.Fatal("no dispatch lag observations")
	}
	if got := lag.Buckets[len(lag.Buckets)-1]; got != lag.Count {
		t.Errorf("dispatch lag le=1 bucket %d < count %d: tardiness above one quantum", got, lag.Count)
	}
}

// TestBatchAckObservedPerJob: a jobs:batch of n jobs is one request but n
// acknowledged submits, so it moves the tenant's and the aggregate
// pfaird_submit_ack_seconds count by exactly n, and one bucket — the one
// its latency falls in — by n, the others not at all.
func TestBatchAckObservedPerJob(t *testing.T) {
	const n = 7
	h := newObsServer(t).Handler()
	do := func(path, body string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code >= 300 {
			t.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body)
		}
	}
	scrape := func() []obs.Snapshot {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		ex, err := obs.ParseExposition(rec.Body.String())
		if err != nil {
			t.Fatal(err)
		}
		agg, err := ex.Histogram("pfaird_submit_ack_seconds", nil)
		if err != nil {
			t.Fatal(err)
		}
		acme, err := ex.Histogram("pfaird_tenant_submit_ack_seconds", []obs.Label{{Name: "tenant", Value: "acme"}})
		if err != nil {
			t.Fatal(err)
		}
		return []obs.Snapshot{agg, acme}
	}
	// slots turns cumulative buckets into per-bucket counts, +Inf last.
	slots := func(s obs.Snapshot) []uint64 {
		out, below := []uint64{}, uint64(0)
		for _, b := range append(s.Buckets, s.Count) {
			out, below = append(out, b-below), b
		}
		return out
	}
	do("/v1/tenants", `{"id":"acme","m":2}`)
	do("/v1/tenants/acme/tasks", `{"name":"web","e":1,"p":2}`)
	do("/v1/tenants/acme/jobs", `{"task":"web"}`)
	before := scrape()
	do("/v1/tenants/acme/jobs:batch", `{"jobs":[`+strings.Repeat(`{"task":"web"},`, n-1)+`{"task":"web"}]}`)
	for i, after := range scrape() {
		if d := after.Count - before[i].Count; d != n {
			t.Errorf("series %d: a batch of %d moved the count by %d", i, n, d)
		}
		moved := 0
		for k, c := range slots(after) {
			switch d := c - slots(before[i])[k]; d {
			case 0:
			case n:
				moved++
			default:
				t.Errorf("series %d: bucket %d moved by %d", i, k, d)
			}
		}
		if moved != 1 {
			t.Errorf("series %d: %d buckets moved by %d, want one", i, moved, n)
		}
	}
}

// firstDiff renders the first differing line of two texts.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return "line " + strings.TrimSpace(strings.Join([]string{
				`#` + itoa(i+1), "want:", w, "got:", g}, " "))
		}
	}
	return "(texts equal?)"
}

func itoa(n int) string {
	return string(appendInt(nil, n))
}

func appendInt(b []byte, n int) []byte {
	if n >= 10 {
		b = appendInt(b, n/10)
	}
	return append(b, byte('0'+n%10))
}

// traceEvents fetches and decodes a tenant's bounded trace stream.
func traceEvents(t *testing.T, h http.Handler, path string) []obs.Event {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusOK {
		t.Fatalf("%s: status %d", path, rw.Code)
	}
	var out []obs.Event
	for _, line := range strings.Split(strings.TrimSpace(rw.Body.String()), "\n") {
		if line == "" {
			continue
		}
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		out = append(out, ev)
	}
	return out
}

// TestTraceLifecycleExact runs one command of each kind and checks the
// trace stream event by event: sequence numbers, stage order, command
// correlation, and — because the clock is fake — the exact invariant
// DurNs == T − T(submit of the same command) on every staged event, with T
// strictly increasing. A jobs:batch is one command, and so is its advance's
// one dispatch event, whatever the number of decisions.
func TestTraceLifecycleExact(t *testing.T) {
	srv := newObsServer(t)
	h := srv.Handler()
	batch := server.SubmitJobsRequest{Jobs: []server.SubmitJobRequest{{Task: "web"}, {Task: "db"}, {Task: "ops"}}}
	for i, c := range []cmd{
		{"POST", "/v1/tenants", server.CreateTenantRequest{ID: "acme", M: 2}},
		{"POST", "/v1/tenants/acme/tasks", server.RegisterTaskRequest{Name: "web", E: 1, P: 2}},
		{"POST", "/v1/tenants/acme/jobs", server.SubmitJobRequest{Task: "web"}},
		{"POST", "/v1/tenants/acme/advance", server.AdvanceRequest{By: "2"}},
		{"POST", "/v1/tenants/acme/tasks", server.RegisterTaskRequest{Name: "db", E: 1, P: 2}},
		{"POST", "/v1/tenants/acme/tasks", server.RegisterTaskRequest{Name: "ops", E: 1, P: 2}},
		{"POST", "/v1/tenants/acme/jobs:batch", batch},
		{"POST", "/v1/tenants/acme/advance", server.AdvanceRequest{By: "2"}}, // three decisions
	} {
		if code := doCmd(t, h, c); code >= 300 {
			t.Fatalf("step %d: status %d", i, code)
		}
	}

	events := traceEvents(t, h, "/v1/tenants/acme/trace?follow=false")
	want := []struct {
		cmd   int64
		op    string
		stage string
	}{
		{1, wal.OpTaskRegister, obs.StageSubmit},
		{1, wal.OpTaskRegister, obs.StageWALAppend},
		{1, wal.OpTaskRegister, obs.StageApply},
		{2, wal.OpJobSubmit, obs.StageSubmit},
		{2, wal.OpJobSubmit, obs.StageWALAppend},
		{2, wal.OpJobSubmit, obs.StageApply},
		{3, wal.OpAdvance, obs.StageSubmit},
		{3, wal.OpAdvance, obs.StageWALAppend},
		{3, wal.OpAdvance, obs.StageDispatch},
		{3, wal.OpAdvance, obs.StageApply},
		{4, wal.OpTaskRegister, obs.StageSubmit},
		{4, wal.OpTaskRegister, obs.StageWALAppend},
		{4, wal.OpTaskRegister, obs.StageApply},
		{5, wal.OpTaskRegister, obs.StageSubmit},
		{5, wal.OpTaskRegister, obs.StageWALAppend},
		{5, wal.OpTaskRegister, obs.StageApply},
		{6, wal.OpJobSubmit, obs.StageSubmit},
		{6, wal.OpJobSubmit, obs.StageWALAppend},
		{6, wal.OpJobSubmit, obs.StageApply},
		{7, wal.OpAdvance, obs.StageSubmit},
		{7, wal.OpAdvance, obs.StageWALAppend},
		{7, wal.OpAdvance, obs.StageDispatch},
		{7, wal.OpAdvance, obs.StageApply},
	}
	if len(events) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(events), len(want), events)
	}
	submitT := map[int64]int64{}
	var lastT int64
	for i, ev := range events {
		w := want[i]
		if ev.Seq != int64(i) {
			t.Errorf("event %d: seq %d", i, ev.Seq)
		}
		if ev.Cmd != w.cmd || ev.Op != w.op || ev.Stage != w.stage {
			t.Errorf("event %d: got (cmd=%d op=%s stage=%s), want (%d %s %s)",
				i, ev.Cmd, ev.Op, ev.Stage, w.cmd, w.op, w.stage)
		}
		if ev.Tenant != "acme" {
			t.Errorf("event %d: tenant %q", i, ev.Tenant)
		}
		if ev.T <= lastT {
			t.Errorf("event %d: timestamp %d not increasing past %d", i, ev.T, lastT)
		}
		lastT = ev.T
		if ev.Err != "" {
			t.Errorf("event %d: unexpected error %q", i, ev.Err)
		}
		switch ev.Stage {
		case obs.StageSubmit:
			submitT[ev.Cmd] = ev.T
			if ev.DurNs != 0 {
				t.Errorf("event %d: submit stage has DurNs %d", i, ev.DurNs)
			}
		default:
			if wantDur := ev.T - submitT[ev.Cmd]; ev.DurNs != wantDur {
				t.Errorf("event %d: DurNs %d, want %d (T − submit T, exact under the fake clock)",
					i, ev.DurNs, wantDur)
			}
		}
	}
	// Per-stage payloads: the register and submit name their task, the
	// submit and advance carry exact virtual times, and the dispatch covers
	// decision 0 of the log alone with zero tardiness.
	if events[0].Task != "web" || events[3].Task != "web" {
		t.Errorf("task fields: register %q, submit %q", events[0].Task, events[3].Task)
	}
	if events[3].At != "0" || events[6].At != "2" {
		t.Errorf("at fields: submit %q, advance %q", events[3].At, events[6].At)
	}
	if d := events[8]; d.DSeq != 0 || d.Count != 1 || d.Lag != "0" || d.Task != "" {
		t.Errorf("dispatch event payload: %+v", d)
	}
	// The batch's one submit names its first job; its advance's decisions
	// are log entries 1–3.
	if events[16].Task != "web" || events[16].At != "2" {
		t.Errorf("batch submit event payload: %+v", events[16])
	}
	if d := events[21]; d.DSeq != 1 || d.Count != 3 || d.Lag != "0" {
		t.Errorf("batch advance dispatch payload: %+v", d)
	}

	// ?from resumes mid-stream with the same sequence numbers.
	tail := traceEvents(t, h, "/v1/tenants/acme/trace?follow=false&from=6")
	if len(tail) != len(events)-6 || tail[0].Seq != 6 {
		t.Fatalf("from=6 tail: %+v", tail)
	}
	// A read that starts one before the end serves the last event.
	last := len(events) - 1
	if tail := traceEvents(t, h, "/v1/tenants/acme/trace?follow=false&from="+strconv.Itoa(last)); len(tail) != 1 || tail[0].Seq != int64(last) {
		t.Fatalf("from=%d tail: %+v", last, tail)
	}

	if code := doCmd(t, h, cmd{"GET", "/v1/tenants/acme/trace?from=-1", nil}); code != http.StatusBadRequest {
		t.Errorf("negative from: status %d", code)
	}
	if code := doCmd(t, h, cmd{"GET", "/v1/tenants/ghost/trace", nil}); code != http.StatusNotFound {
		t.Errorf("unknown tenant trace: status %d", code)
	}
}

// countingClock is the stepping fake clock, counting its reads.
type countingClock struct {
	*obs.Fake
	reads atomic.Int64
}

func (c *countingClock) Now() time.Time {
	c.reads.Add(1)
	return c.Fake.Now()
}

// TestTraceClockReadsPerRound: what tracing costs a round of one batch of N
// jobs and one advance of K ≥ 1 decisions is a fixed number of clock reads
// and a fixed number of trace events, for the batch and for the advance,
// whatever N and K are.
func TestTraceClockReadsPerRound(t *testing.T) {
	reads, events := map[int64]bool{}, map[[2]int]bool{}
	for _, tc := range []struct{ n, k int }{{1, 1}, {4, 1}, {4, 4}, {16, 3}, {16, 16}} {
		clock := &countingClock{Fake: obs.NewFake(time.Unix(1700000000, 0), time.Millisecond)}
		srv, err := server.Open(server.Options{DataDir: t.TempDir(), FsyncEvery: 1, FsyncMaxDelay: -1, Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		h := srv.Handler()
		do := func(c cmd) {
			t.Helper()
			if code := doCmd(t, h, c); code >= 300 {
				t.Fatalf("n=%d k=%d: %s %s: status %d", tc.n, tc.k, c.method, c.path, code)
			}
		}
		// n tasks of weight 1/n on one processor: the batch is one job of
		// each, and advancing by k−1 decides k of them (one at each integral
		// instant, the target's included).
		do(cmd{"POST", "/v1/tenants", server.CreateTenantRequest{ID: "acme", M: 1}})
		var batch server.SubmitJobsRequest
		for i := 0; i < tc.n; i++ {
			name := "t" + itoa(i)
			do(cmd{"POST", "/v1/tenants/acme/tasks", server.RegisterTaskRequest{Name: name, E: 1, P: int64(tc.n)}})
			batch.Jobs = append(batch.Jobs, server.SubmitJobRequest{Task: name})
		}
		traced := func() int { return len(traceEvents(t, h, "/v1/tenants/acme/trace?follow=false")) }
		// (A trace read goes through the handler too: count around it.)
		traced0 := traced()
		before := clock.reads.Load()
		do(cmd{"POST", "/v1/tenants/acme/jobs:batch", batch})
		n := clock.reads.Load() - before
		traced1 := traced()
		before = clock.reads.Load()
		do(cmd{"POST", "/v1/tenants/acme/advance", server.AdvanceRequest{By: itoa(tc.k - 1)}})
		n += clock.reads.Load() - before
		if got := captureState(t, h).Infos["acme"].Dispatches; got != int64(tc.k) {
			t.Fatalf("n=%d k=%d: %d decisions", tc.n, tc.k, got)
		}
		reads[n], events[[2]int{traced1 - traced0, traced() - traced1}] = true, true
	}
	if len(reads) != 1 || len(events) != 1 {
		t.Errorf("clock reads per round %v, trace events per (batch, advance) %v: want one value each", reads, events)
	}
}

// TestTraceFollowLive covers the streaming side: a follower sees the
// backlog, then events from commands issued while it is attached, and the
// stream ends cleanly when the tenant is deleted.
func TestTraceFollowLive(t *testing.T) {
	srv := newObsServer(t)
	hs := hoptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	c := client.New(hs.URL, nil)
	ctx := context.Background()

	if _, err := c.CreateTenant(ctx, "acme", 1, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterTask(ctx, "acme", "web", model.W(1, 2)); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(hs.URL + "/v1/tenants/acme/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	read := func() obs.Event {
		t.Helper()
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
		var ev obs.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("stream line %q: %v", line, err)
		}
		return ev
	}
	for i := 0; i < 3; i++ { // the register command's backlog
		if ev := read(); ev.Cmd != 1 {
			t.Fatalf("backlog event %d: %+v", i, ev)
		}
	}

	if _, err := c.SubmitJob(ctx, "acme", "web", ""); err != nil {
		t.Fatal(err)
	}
	stages := []string{obs.StageSubmit, obs.StageWALAppend, obs.StageApply}
	for i, want := range stages { // the live command, as it happens
		ev := read()
		if ev.Cmd != 2 || ev.Stage != want {
			t.Fatalf("live event %d: got (cmd=%d stage=%s), want (2 %s)", i, ev.Cmd, ev.Stage, want)
		}
	}

	if err := c.DeleteTenant(ctx, "acme"); err != nil {
		t.Fatal(err)
	}
	if _, err := br.ReadBytes('\n'); err == nil {
		t.Fatal("stream kept going after tenant deletion")
	}
}

// TestObsConcurrentScrapes is the -race workout: 8 scrapers pull and
// strictly parse /metrics while submitters mutate state, every scrape must
// be well-formed, and pfaird_commands_total must be monotone within each
// scraper. A close/reopen cycle afterwards checks the counter also
// survives recovery.
func TestObsConcurrentScrapes(t *testing.T) {
	dir := t.TempDir()
	srv, err := server.Open(server.Options{DataDir: dir, FsyncEvery: 4, SnapshotEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	hs := hoptest.NewServer(srv.Handler())
	c := client.New(hs.URL, nil)
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, "acme", 2, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterTask(ctx, "acme", "web", model.W(1, 2)); err != nil {
		t.Fatal(err)
	}

	const (
		scrapers   = 8
		submitters = 4
		iters      = 12
	)
	var wg sync.WaitGroup
	errs := make(chan error, scrapers+submitters)
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				if _, err := c.SubmitJob(ctx, "acme", "web", ""); err != nil {
					errs <- err
					return
				}
				// Concurrent relative advances serialize under the tenant
				// lock, so each resolves a fresh valid target.
				if _, err := postAdvance(hs, "acme", "2"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	scrapeOnce := func() (float64, error) {
		text, err := c.Metrics(ctx)
		if err != nil {
			return 0, err
		}
		ex, err := obs.ParseExposition(text)
		if err != nil {
			return 0, err
		}
		if err := ex.Check(); err != nil {
			return 0, err
		}
		f := ex.Family("pfaird_commands_total")
		if f == nil || len(f.Samples) != 1 {
			return 0, errMissingCommands
		}
		return f.Samples[0].Value, nil
	}
	var lastMu sync.Mutex
	var last float64
	for i := 0; i < scrapers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := -1.0
			for j := 0; j < iters; j++ {
				v, err := scrapeOnce()
				if err != nil {
					errs <- err
					return
				}
				if v < prev {
					errs <- errNonMonotone
					return
				}
				prev = v
			}
			lastMu.Lock()
			if prev > last {
				last = prev
			}
			lastMu.Unlock()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	final, err := scrapeOnce()
	if err != nil {
		t.Fatal(err)
	}
	if final < last {
		t.Fatalf("final scrape %g below a concurrent scrape %g", final, last)
	}
	hs.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery must restore at least the acknowledged commands every
	// scrape saw; the counter never moves backwards across a restart.
	srv2, err := server.Open(server.Options{DataDir: dir, FsyncEvery: 4, SnapshotEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	req := httptest.NewRequest("GET", "/metrics", nil)
	rw := httptest.NewRecorder()
	srv2.Handler().ServeHTTP(rw, req)
	ex, err := obs.ParseExposition(rw.Body.String())
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Check(); err != nil {
		t.Fatal(err)
	}
	f := ex.Family("pfaird_commands_total")
	if f == nil || len(f.Samples) != 1 {
		t.Fatal("recovered server exposes no pfaird_commands_total")
	}
	if got := f.Samples[0].Value; got < final {
		t.Fatalf("commands_total after recovery %g < pre-restart %g", got, final)
	}
}

var (
	errMissingCommands = &obsErr{"scrape has no single pfaird_commands_total sample"}
	errNonMonotone     = &obsErr{"pfaird_commands_total moved backwards within one scraper"}
)

type obsErr struct{ s string }

func (e *obsErr) Error() string { return e.s }

// postAdvance issues a relative advance over the real HTTP server (the
// client API takes absolute targets, which would race here).
func postAdvance(hs *hoptest.Server, id, by string) (*http.Response, error) {
	b, _ := json.Marshal(server.AdvanceRequest{By: by})
	resp, err := http.Post(hs.URL+"/v1/tenants/"+id+"/advance", "application/json", strings.NewReader(string(b)))
	if err != nil {
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		return nil, &obsErr{"advance: status " + itoa(resp.StatusCode)}
	}
	return resp, nil
}

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"desyncpfair/internal/client"
	"desyncpfair/internal/model"
	"desyncpfair/internal/server"
)

// The cluster's reaction paths, each driven by its event alone. No test here
// sleeps or waits for a period to run out: the loops get a ticker that never
// fires (or one the test fires by hand), and every wait is on the event
// itself, under a context that fails a test that would otherwise hang.

// neverTicker is the ticker of a loop that must not need one.
func neverTicker(time.Duration) (<-chan time.Time, func()) { return nil, func() {} }

func testContext(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// leaderAt opens dir as a leader whose every ack is durable, behind an
// httptest listener.
func leaderAt(t *testing.T, dir string) (*server.Server, *httptest.Server) {
	t.Helper()
	srv, err := server.Open(server.Options{DataDir: dir, FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.CloseClientConnections()
		hs.Close()
		srv.Close()
	})
	return srv, hs
}

// durableLeader is leaderAt in a fresh directory, holding one tenant with one
// task: two records past its boot snapshot.
func durableLeader(t *testing.T) (*server.Server, *httptest.Server, *client.Client) {
	t.Helper()
	srv, hs := leaderAt(t, t.TempDir())
	c := client.New(hs.URL, nil)
	if _, err := c.CreateTenant(context.Background(), "t", 1, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterTask(context.Background(), "t", "x", model.W(1, 2)); err != nil {
		t.Fatal(err)
	}
	return srv, hs, c
}

// bootFollower bootstraps a replica of leaderURL into a fresh directory and
// starts it tailing through hc with a status ticker that never fires.
func bootFollower(t *testing.T, leaderURL string, hc *http.Client) (*server.Server, *Follower) {
	t.Helper()
	dir := t.TempDir()
	if err := Bootstrap(dir, leaderURL, nil, nil); err != nil {
		t.Fatal(err)
	}
	srv, err := server.Open(server.Options{DataDir: dir, FsyncEvery: 1, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	fol := startFollower(srv, leaderURL, hc, neverTicker)
	t.Cleanup(func() {
		_ = fol.Seal()
		srv.Close()
	})
	return srv, fol
}

func healthOf(t *testing.T, srv *server.Server) (server.HealthResponse, int) {
	t.Helper()
	rw := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rw, httptest.NewRequest("GET", "/healthz", nil))
	var h server.HealthResponse
	if err := json.Unmarshal(rw.Body.Bytes(), &h); err != nil {
		t.Fatalf("/healthz body %q: %v", rw.Body.Bytes(), err)
	}
	return h, rw.Code
}

func metricLine(t *testing.T, srv *server.Server, name string) string {
	t.Helper()
	rw := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(rw.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("/metrics has no sample %s", name)
	return ""
}

// TestBootstrapSilentLeaderFails: a leader that takes the connection and
// never answers must fail the snapshot fetch — and with it Bootstrap and the
// start of pfaird -follow — once the header wait runs out, not hang it. The
// wait is the event here, so the test hands in a short one; the listener
// says nothing on the connection it was sent, and it was sent one.
func TestBootstrapSilentLeaderFails(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c
		}
	}()
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	ctx := testContext(t)
	_, err = fetchSnapshot(ctx, "http://"+ln.Addr().String(), hc, 20*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "no response headers") {
		t.Fatalf("fetchSnapshot from a silent leader: err %v, want the header wait to fail it", err)
	}
	select {
	case c := <-accepted:
		c.Close()
	case <-ctx.Done():
		t.Fatal("the fetch failed without ever connecting to the listener")
	}
}

// TestFollowerOfIdleLeaderReadyWithoutTick: a replica of an idle leader is
// ready without its status ticker ever firing, so from the two events alone.
// With the leader's snapshot current there is no record to apply and the
// first status answer ends bootstrap; with two records in the leader's log
// past the snapshot the replica was given, the one that reaches the tip does.
func TestFollowerOfIdleLeaderReadyWithoutTick(t *testing.T) {
	ctx := testContext(t)
	_, fresh := leaderAt(t, t.TempDir())
	_, fol := bootFollower(t, fresh.URL, nil)
	if lsn, _, err := fol.WaitReady(ctx); err != nil || lsn != 0 {
		t.Fatalf("the replica of a leader with an empty log: ready at LSN %d, %v", lsn, err)
	}

	lsrv, lhs, _ := durableLeader(t)
	fsrv, fol := bootFollower(t, lhs.URL, nil)
	lsn, took, err := fol.WaitReady(ctx)
	if err != nil {
		t.Fatalf("the replica of an idle leader never left bootstrap: %v", err)
	}
	if want := lsrv.AppliedLSN(); lsn != want || fsrv.AppliedLSN() != want || want < 2 {
		t.Fatalf("ready at LSN %d (applied now %d), the leader's durable tip is %d", lsn, fsrv.AppliedLSN(), want)
	}
	h, code := healthOf(t, fsrv)
	if code != http.StatusOK || h.Status != "ok" || h.ReplicationLagLSN == nil || *h.ReplicationLagLSN != 0 {
		t.Fatalf("/healthz after catch-up: %d %+v", code, h)
	}
	gauge, err := strconv.ParseFloat(metricLine(t, fsrv, "pfaird_replication_bootstrap_seconds"), 64)
	if err != nil || took <= 0 || gauge != took.Seconds() {
		t.Fatalf("pfaird_replication_bootstrap_seconds = %v (%v), WaitReady said %v", gauge, err, took)
	}
	if got := metricLine(t, lsrv, "pfaird_replication_log_streams"); got != "1" {
		t.Fatalf("the leader counts %s log streams with one replica attached", got)
	}
}

// gatedLog stands between a follower and its leader: status and snapshot
// requests go through, the log stream is fed by the test, a line at a time.
// Every Read of the stream's body announces itself on asked first — the
// follower reads again only when it has applied every line it was handed —
// and then takes the next line from feed.
type gatedLog struct {
	asked chan struct{}
	feed  chan []byte
}

func (g *gatedLog) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/v1/replication/log" {
		return http.DefaultTransport.RoundTrip(req)
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/x-ndjson"}},
		Body:       &gatedBody{g: g, ctx: req.Context()},
		Request:    req,
	}, nil
}

type gatedBody struct {
	g   *gatedLog
	ctx context.Context
}

func (b *gatedBody) Read(p []byte) (int, error) {
	select {
	case b.g.asked <- struct{}{}:
	case <-b.ctx.Done():
		return 0, b.ctx.Err()
	}
	select {
	case line := <-b.g.feed:
		return copy(p, line), nil
	case <-b.ctx.Done():
		return 0, b.ctx.Err()
	}
}

func (b *gatedBody) Close() error { return nil }

// TestFollowerReadyExactlyAtTip: a replica that starts behind is told its
// leader's durable tip once, at start, and is ready at the record that
// reaches it: not one record sooner — with the tip's last record still to
// come /healthz answers 503 and the lag gauge reads 1 — and not a tick later:
// the one tick the test hands the status loop comes before the first record.
func TestFollowerReadyExactlyAtTip(t *testing.T) {
	ctx := testContext(t)
	lsrv, lhs, c := durableLeader(t)
	dir := t.TempDir()
	if err := Bootstrap(dir, lhs.URL, nil, nil); err != nil {
		t.Fatal(err)
	}
	// The backlog: everything the leader has journaled, and six records more.
	for i := 0; i < 6; i++ {
		if _, err := c.SubmitJobKeyed(ctx, "t", server.SubmitJobRequest{Task: "x", Key: fmt.Sprint("k", i)}); err != nil {
			t.Fatal(err)
		}
	}
	tip := lsrv.AppliedLSN()
	fsrv, err := server.Open(server.Options{DataDir: dir, FsyncEvery: 1, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fsrv.Close()
	resp, err := http.Get(fmt.Sprintf("%s/v1/replication/log?from=%d&follow=false", lhs.URL, fsrv.AppliedLSN()+1))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	lines = lines[:len(lines)-1] // what follows the last newline: nothing
	if uint64(len(lines)) != tip-fsrv.AppliedLSN() || len(lines) < 6 {
		t.Fatalf("the leader's log holds %d lines past LSN %d, its tip is %d", len(lines), fsrv.AppliedLSN(), tip)
	}

	gate := &gatedLog{asked: make(chan struct{}), feed: make(chan []byte)}
	ticks := make(chan time.Time)
	fol := startFollower(fsrv, lhs.URL, &http.Client{Transport: gate},
		func(time.Duration) (<-chan time.Time, func()) { return ticks, func() {} })
	defer fol.Seal()
	// The status loop takes a tick only once its first answer is in: from here
	// on the follower knows the tip, and no tick follows this one.
	select {
	case ticks <- time.Now():
	case <-ctx.Done():
		t.Fatal("the status loop never finished its first poll")
	}
	// hand gives the follower its next line once it asks for one — which it
	// does only when it has applied every line it was handed before.
	hand := func(line []byte) {
		t.Helper()
		select {
		case <-gate.asked:
		case <-ctx.Done():
			t.Fatal("the follower stopped reading its log stream")
		}
		if line != nil {
			gate.feed <- line
		}
	}
	for _, line := range lines[:len(lines)-1] {
		hand(line)
	}
	hand(nil) // asked again: all but the last line are applied

	if got := fsrv.AppliedLSN(); got != tip-1 {
		t.Fatalf("one record short of the tip the follower has applied %d, want %d", got, tip-1)
	}
	h, code := healthOf(t, fsrv)
	if code != http.StatusServiceUnavailable || h.Status != "bootstrapping" {
		t.Fatalf("/healthz one record short of the tip: %d %q, want 503 bootstrapping", code, h.Status)
	}
	if h.ReplicationLagLSN == nil || *h.ReplicationLagLSN != 1 {
		t.Fatalf("lag gauge one record short of the tip: %v, want 1", h.ReplicationLagLSN)
	}
	if got := metricLine(t, fsrv, "pfaird_replication_bootstrap_seconds"); got != "-1" {
		t.Fatalf("pfaird_replication_bootstrap_seconds = %s while bootstrapping, want -1", got)
	}
	select {
	case <-fol.ready:
		t.Fatal("ready before the tip")
	default:
	}

	gate.feed <- lines[len(lines)-1]
	lsn, _, err := fol.WaitReady(ctx)
	if err != nil || lsn != tip {
		t.Fatalf("WaitReady = LSN %d, %v; want the tip, %d", lsn, err, tip)
	}
	if h, code := healthOf(t, fsrv); code != http.StatusOK || *h.ReplicationLagLSN != 0 {
		t.Fatalf("/healthz at the tip: %d, lag %d", code, *h.ReplicationLagLSN)
	}
}

// scriptedReplica is a pfaird stand-in for the router's failover path: it
// answers the health probe as a follower at a fixed applied LSN until a
// promote request is answered 200, as a leader from then on, and counts the
// promote requests and job submits it receives. onPromote scripts the n-th
// promote request's status, and may hold it.
type scriptedReplica struct {
	*httptest.Server
	applied   uint64
	leads     atomic.Bool
	promotes  atomic.Int64
	submits   atomic.Int64
	onPromote func(n int64) int
}

func newScriptedReplica(t *testing.T, applied uint64, onPromote func(n int64) int) *scriptedReplica {
	t.Helper()
	sr := &scriptedReplica{applied: applied, onPromote: onPromote}
	sr.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch {
		case r.URL.Path == "/v1/replication/status":
			role := "follower"
			if sr.leads.Load() {
				role = "leader"
			}
			fmt.Fprintf(w, `{"role":%q,"term":1,"appliedLSN":%d}`+"\n", role, sr.applied)
		case r.URL.Path == "/v1/cluster/promote":
			code := sr.onPromote(sr.promotes.Add(1))
			if code == http.StatusOK {
				sr.leads.Store(true)
			}
			w.WriteHeader(code)
			io.WriteString(w, `{"role":"leader","term":1}`+"\n")
		case strings.HasSuffix(r.URL.Path, "/jobs") && sr.leads.Load():
			sr.submits.Add(1)
			w.WriteHeader(http.StatusAccepted)
			io.WriteString(w, "{}\n")
		default:
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"error":"not the leader"}`+"\n")
		}
	}))
	t.Cleanup(sr.Close)
	return sr
}

// logLines collects a router's log.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logLines) has(sub string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if strings.Contains(line, sub) {
			return true
		}
	}
	return false
}

// waitTable waits, table by table, for the health loop to publish one cond
// holds for.
func waitTable(t *testing.T, ctx context.Context, r *Router, what string, cond func(*routeTable) bool) {
	t.Helper()
	for {
		tb := r.table.Load()
		if cond(tb) {
			return
		}
		select {
		case <-tb.superseded:
		case <-ctx.Done():
			t.Fatalf("no route table with %s was published", what)
		}
	}
}

// TestPromotionReportsBack: the router learns that its own promotion
// succeeded from the promotion, not from the next scan, and a request waiting
// for a leader learns it from the table that names one, not from its retry
// period. Neither the health loop's ticker nor the retry wait's ever fires
// here. The keyed submit is parked — it has read the leaderless table and
// asked for its retry timer — before the promotion is allowed to return.
func TestPromotionReportsBack(t *testing.T) {
	ctx := testContext(t)
	arrived, release := make(chan struct{}), make(chan struct{})
	replica := newScriptedReplica(t, 5, func(int64) int {
		close(arrived)
		<-release
		return http.StatusOK
	})
	var log logLines
	r, err := NewRouter(RouterOptions{
		Groups:         [][]string{{replica.URL}},
		HealthInterval: time.Hour,
		FailoverAfter:  time.Nanosecond, // the group has been leaderless long enough at the first scan
		RetryWindow:    time.Hour,
		Logf:           log.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	parked := make(chan struct{}, 1)
	r.newTicker = func(d time.Duration) (<-chan time.Time, func()) {
		if d == proxyRetryEvery {
			parked <- struct{}{}
		}
		return neverTicker(d)
	}
	r.Start()
	t.Cleanup(r.Close)
	front := httptest.NewServer(r.Handler())
	t.Cleanup(front.Close)

	select {
	case <-arrived:
	case <-ctx.Done():
		t.Fatal("the first scan promoted nobody")
	}
	status := make(chan int, 1)
	go func() {
		resp, err := http.Post(front.URL+"/v1/tenants/t/jobs", "application/json", strings.NewReader(`{"task":"x","key":"k1"}`))
		if err != nil {
			t.Error(err)
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	select {
	case <-parked:
	case <-ctx.Done():
		t.Fatal("the keyed submit never waited for a leader")
	}
	close(release)
	select {
	case code := <-status:
		if code != http.StatusAccepted {
			t.Fatalf("the parked submit was answered %d, want 202", code)
		}
	case <-ctx.Done():
		t.Fatal("the promotion returned and the parked submit is still waiting")
	}
	if tb := r.table.Load(); tb.groups[0].leader != 0 {
		t.Fatalf("the route table names leader %d after the promotion returned", tb.groups[0].leader)
	}
	if p, s := replica.promotes.Load(), replica.submits.Load(); p != 1 || s != 1 {
		t.Fatalf("the replica saw %d promote requests and %d submits, want 1 and 1", p, s)
	}
	if !log.has("reading group 0 again now") {
		t.Fatalf("the promoted line does not name the rescan: %q", log.lines)
	}
}

// TestFailedPromotionIsRetried: a promotion that fails must not be the
// group's last. The better of two followers answers 500 to the first promote
// request; the scan after that — the test hands the health loop its ticks —
// picks a candidate afresh, the same one, whose second answer is 200, and the
// group has a leader. The flag that keeps a second request from going out
// while one is in flight used to stay set after a failure, for good.
func TestFailedPromotionIsRetried(t *testing.T) {
	ctx := testContext(t)
	failed := make(chan struct{})
	best := newScriptedReplica(t, 9, func(n int64) int {
		if n == 1 {
			close(failed)
			return http.StatusInternalServerError
		}
		return http.StatusOK
	})
	other := newScriptedReplica(t, 5, func(int64) int { return http.StatusOK })
	var log logLines
	r, err := NewRouter(RouterOptions{
		Groups:         [][]string{{other.URL, best.URL}},
		HealthInterval: time.Hour,
		FailoverAfter:  time.Nanosecond,
		Logf:           log.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ticks := make(chan time.Time)
	r.newTicker = func(time.Duration) (<-chan time.Time, func()) { return ticks, func() {} }
	r.Start()
	t.Cleanup(r.Close)

	select {
	case <-failed:
	case <-ctx.Done():
		t.Fatal("the first scan promoted nobody")
	}
	// A scan that comes before the health loop has taken the failure in still
	// sees the request in flight; the one after it retries.
	for best.promotes.Load() < 2 {
		select {
		case ticks <- time.Now():
		case <-ctx.Done():
			t.Fatalf("after a failed promotion no scan tried again (log: %q)", log.lines)
		}
	}
	waitTable(t, ctx, r, "a leader", func(tb *routeTable) bool { return tb.groups[0].leader == 1 })
	if b, o := best.promotes.Load(), other.promotes.Load(); b != 2 || o != 0 {
		t.Fatalf("promote requests: %d to the most caught-up follower, %d to the other; want 2 and 0", b, o)
	}
	if !log.has("tried again at the next scan") {
		t.Fatalf("the failure line does not name the retry: %q", log.lines)
	}
}

package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"desyncpfair/internal/client"
	"desyncpfair/internal/hop"
	"desyncpfair/internal/hop/hoptest"
	"desyncpfair/internal/model"
	"desyncpfair/internal/obs"
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
func leaderAt(t *testing.T, dir string) (*server.Server, *hoptest.Server) {
	t.Helper()
	srv, err := server.Open(server.Options{DataDir: dir, FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := hoptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.CloseClientConnections()
		hs.Close()
		srv.Close()
	})
	return srv, hs
}

// durableLeader is leaderAt in a fresh directory, holding one tenant with one
// task: two records past its boot snapshot.
func durableLeader(t *testing.T) (*server.Server, *hoptest.Server, *client.Client) {
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
// starts it tailing with a status ticker that never fires.
func bootFollower(t *testing.T, leaderURL string) (*server.Server, *Follower) {
	t.Helper()
	dir := t.TempDir()
	if err := Bootstrap(dir, leaderURL, nil, nil); err != nil {
		t.Fatal(err)
	}
	srv, err := server.Open(server.Options{DataDir: dir, FsyncEvery: 1, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	fol := startFollower(srv, leaderURL, nil, neverTicker)
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

// metricSample scrapes srv's /metrics for one unlabelled sample.
func metricSample(t *testing.T, srv *server.Server, name string) float64 {
	t.Helper()
	rw := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
	ex, err := obs.ParseExposition(rw.Body.String())
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	if f := ex.Family(name); f != nil && len(f.Samples) == 1 && len(f.Samples[0].Labels) == 0 {
		return f.Samples[0].Value
	}
	t.Fatalf("/metrics has no single unlabelled sample %s", name)
	return 0
}

// pipeLeader serves h through hop.Server on an in-memory network, as the
// leader at the URL it returns; dial reaches it. Every connection the leader
// accepts is handed to accepted, if that is not nil.
func pipeLeader(t *testing.T, h http.Handler, accepted chan<- *leaderEnd) (url string, dial hop.DialFunc) {
	t.Helper()
	var pipes hoptest.Pipes
	ln := pipes.Listen("leader.test:80")
	if accepted != nil {
		ln = endListener{ln, accepted}
	}
	hs := &hop.Server{Handler: h}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	return "http://leader.test:80", pipes.Dial
}

// leaderEnd is the leader's end of one connection; eof is closed when a read
// on it finds that the follower closed its end.
type leaderEnd struct {
	net.Conn
	eof  chan struct{}
	once sync.Once
}

func (c *leaderEnd) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err == io.EOF {
		c.once.Do(func() { close(c.eof) })
	}
	return n, err
}

type endListener struct {
	net.Listener
	accepted chan<- *leaderEnd
}

func (l endListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	end := &leaderEnd{Conn: c, eof: make(chan struct{})}
	l.accepted <- end
	return end, nil
}

// TestBootstrapSilentLeaderFails: a leader that takes the connection and
// never answers must fail the snapshot fetch — and with it Bootstrap and the
// start of pfaird -follow — once the header wait runs out, not hang it. The
// wait is the event here, so the test hands in a short one; the leader reads
// the request it was sent and says nothing.
func TestBootstrapSilentLeaderFails(t *testing.T) {
	var pipes hoptest.Pipes
	ln := pipes.Listen("leader.test:80")
	defer ln.Close()
	read := make(chan struct{})
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if _, err := http.ReadRequest(bufio.NewReader(c)); err == nil {
			close(read)
		}
		io.Copy(io.Discard, c) // until the follower hangs up
	}()
	up, err := hop.New("http://leader.test:80")
	if err != nil {
		t.Fatal(err)
	}
	hop.DialWith(up, pipes.Dial)
	ctx := testContext(t)
	_, err = fetchSnapshot(ctx, up, 20*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "no response headers") {
		t.Fatalf("fetchSnapshot from a silent leader: err %v, want the header wait to fail it", err)
	}
	select {
	case <-read:
	case <-ctx.Done():
		t.Fatal("the fetch failed without the leader ever reading its request")
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
	_, fol := bootFollower(t, fresh.URL)
	if lsn, _, err := fol.WaitReady(ctx); err != nil || lsn != 0 {
		t.Fatalf("the replica of a leader with an empty log: ready at LSN %d, %v", lsn, err)
	}

	lsrv, lhs, _ := durableLeader(t)
	fsrv, fol := bootFollower(t, lhs.URL)
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
	if gauge := metricSample(t, fsrv, "pfaird_replication_bootstrap_seconds"); took <= 0 || gauge != took.Seconds() {
		t.Fatalf("pfaird_replication_bootstrap_seconds = %v, WaitReady said %v", gauge, took)
	}
	if got := metricSample(t, lsrv, "pfaird_replication_log_streams"); got != 1 {
		t.Fatalf("the leader counts %v log streams with one replica attached", got)
	}
}

// gatedLog is a leader whose log stream the test feeds, a line at a time;
// every other request goes to the real leader's handler. Served over a pipe,
// each write returns only once the follower has read it. Before each line the
// stream sends an empty one, which the follower skips: the follower reads
// again only when it has applied every line it was handed, so that write
// returning is the follower asking for its next line, announced on asked.
type gatedLog struct {
	leader http.Handler
	asked  chan struct{}
	feed   chan []byte
}

func (g *gatedLog) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/replication/log" {
		g.leader.ServeHTTP(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	for {
		io.WriteString(w, "\n")
		w.(http.Flusher).Flush()
		select {
		case g.asked <- struct{}{}:
		case <-r.Context().Done():
			return
		}
		select {
		case line := <-g.feed:
			w.Write(line)
			w.(http.Flusher).Flush()
		case <-r.Context().Done():
			return
		}
	}
}

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

	gate := &gatedLog{leader: lsrv.Handler(), asked: make(chan struct{}), feed: make(chan []byte)}
	url, dial := pipeLeader(t, gate, nil)
	ticks := make(chan time.Time)
	fol := startFollower(fsrv, url, dial,
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
	if got := metricSample(t, fsrv, "pfaird_replication_bootstrap_seconds"); got != -1 {
		t.Fatalf("pfaird_replication_bootstrap_seconds = %v while bootstrapping, want -1", got)
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

// TestSealHangsUpOnLeader: a sealed follower keeps no connection to its old
// leader. Every connection the leader accepted from it — the snapshot fetch,
// the log stream and the status poll's, kept alive in the pool — reads EOF
// once Seal has returned, so the leader's server holds no goroutine for a
// node that will not ask again. The leader answers the status poll only once
// the log stream is open, so the two are on separate connections and the
// poll's is idle when Seal runs.
func TestSealHangsUpOnLeader(t *testing.T) {
	ctx := testContext(t)
	lsrv, _, _ := durableLeader(t)
	logOpen := make(chan struct{})
	var once sync.Once
	leader := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/replication/log":
			once.Do(func() { close(logOpen) })
		case "/v1/replication/status":
			<-logOpen
		}
		lsrv.Handler().ServeHTTP(w, r)
	})
	// Room for every connection the follower opens (three), so that the
	// leader's Accept never waits on the test.
	accepted := make(chan *leaderEnd, 8)
	url, dial := pipeLeader(t, leader, accepted)
	dir := t.TempDir()
	if err := Bootstrap(dir, url, dial, nil); err != nil {
		t.Fatal(err)
	}
	fsrv, err := server.Open(server.Options{DataDir: dir, FsyncEvery: 1, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fsrv.Close()
	fol := startFollower(fsrv, url, dial, neverTicker)
	if _, _, err := fol.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	fol.Seal()
	n := len(accepted)
	if n < 2 {
		t.Fatalf("the leader accepted %d connections, want the log stream's and the status poll's at least", n)
	}
	for i := 1; i <= n; i++ {
		select {
		case <-(<-accepted).eof:
		case <-ctx.Done():
			t.Fatalf("after Seal the leader's end of connection %d of %d never read EOF", i, n)
		}
	}
}

// TestFollowerOfRefusedURL: StartFollower given a leader URL that is not
// http://host:port starts nothing and does not panic. The node stays in
// bootstrap — 503, so no router reads from a replica of nothing — with the
// refusal, naming the URL, as its replication error; Seal returns.
func TestFollowerOfRefusedURL(t *testing.T) {
	srv, err := server.Open(server.Options{DataDir: t.TempDir(), Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const leader = "http://leader.test:80/"
	fol := StartFollower(srv, leader, nil)
	h, code := healthOf(t, srv)
	if code != http.StatusServiceUnavailable || h.Status != "bootstrapping" {
		t.Errorf("/healthz: %d %q, want 503 bootstrapping", code, h.Status)
	}
	if !strings.Contains(h.ReplicationError, leader) {
		t.Errorf("/healthz replication error %q does not name %s", h.ReplicationError, leader)
	}
	if err := fol.Seal(); err != nil {
		t.Fatal(err)
	}
}

// TestFollowerTailRetriesOnTick: a follower whose log stream fails opens the
// next one when its retry wait ends, and not before. The leader here answers
// every log request 500; the retry wait's ticker fires only when the test
// sends on it, so each retry is one the test allowed. After each failure the
// follower has asked for its retry ticker — it is parked on it — and the
// leader has seen exactly as many log requests as the test sent ticks, plus
// the first.
func TestFollowerTailRetriesOnTick(t *testing.T) {
	ctx := testContext(t)
	var tails atomic.Int64
	leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/replication/log" {
			tails.Add(1)
		}
		w.WriteHeader(http.StatusInternalServerError)
		io.WriteString(w, `{"error":"down"}`+"\n")
	}))
	t.Cleanup(leader.Close)
	srv, err := server.Open(server.Options{DataDir: t.TempDir(), Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	parked := make(chan struct{}, 1)
	retry := make(chan time.Time)
	fol := startFollower(srv, leader.URL, nil, func(d time.Duration) (<-chan time.Time, func()) {
		if d != tailRetry {
			return neverTicker(d)
		}
		parked <- struct{}{}
		return retry, func() {}
	})
	t.Cleanup(func() { _ = fol.Seal() })

	for want := int64(1); want <= 3; want++ {
		select {
		case <-parked:
		case <-ctx.Done():
			t.Fatalf("after log request %d failed the follower never waited to retry", want)
		}
		if got := tails.Load(); got != want {
			t.Fatalf("the leader saw %d log requests, want %d: one, and one per tick", got, want)
		}
		if h, _ := healthOf(t, srv); !strings.Contains(h.ReplicationError, "HTTP 500") {
			t.Fatalf("/healthz replication error %q does not name the failed stream", h.ReplicationError)
		}
		if want == 3 {
			break
		}
		select {
		case retry <- time.Now():
		case <-ctx.Done():
			t.Fatal("the parked follower never took its tick")
		}
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
	front := hoptest.NewServer(r.Handler())
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

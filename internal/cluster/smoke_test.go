package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"desyncpfair/internal/client"
	"desyncpfair/internal/cluster"
	"desyncpfair/internal/hop/hoptest"
	"desyncpfair/internal/model"
	"desyncpfair/internal/server"
)

// TestClusterSmoke is the cluster-smoke CI job: one leader, two
// followers, and a router in front; traffic flows, the leader is killed,
// and the router must promote a caught-up follower — once, and before the
// first write after the kill is acked — with zero acked-write loss and the
// schedule's one-quantum tardiness bound intact across the failover. The
// time that took is logged, not gated.
func TestClusterSmoke(t *testing.T) {
	lsrv, lhs := openLeader(t, t.TempDir(), nil)
	defer lhs.Close()
	defer lsrv.Close()
	f1srv, f1hs, _ := openFollower(t, t.TempDir(), lhs.URL)
	defer f1hs.Close()
	defer f1srv.Close()
	f2srv, f2hs, _ := openFollower(t, t.TempDir(), lhs.URL)
	defer f2hs.Close()
	defer f2srv.Close()

	// The failover's events in the order they happened: the router's log
	// lines and the test's own marks.
	var evMu sync.Mutex
	var events []string
	mark := func(format string, args ...any) {
		evMu.Lock()
		events = append(events, fmt.Sprintf(format, args...))
		evMu.Unlock()
	}
	router, err := cluster.NewRouter(cluster.RouterOptions{
		Groups:         [][]string{{lhs.URL, f1hs.URL, f2hs.URL}},
		HealthInterval: 25 * time.Millisecond,
		FailoverAfter:  300 * time.Millisecond,
		Logf: func(format string, args ...any) {
			t.Logf(format, args...)
			mark(format, args...)
		},
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	router.Start()
	defer router.Close()
	rhs := hoptest.NewServer(router.Handler())
	defer rhs.Close()

	ctx := context.Background()
	rc := client.New(rhs.URL, nil).WithRetry(client.RetryPolicy{MaxAttempts: 10})
	if _, err := rc.CreateTenant(ctx, "t", 1, ""); err != nil {
		t.Fatalf("CreateTenant through router: %v", err)
	}
	if _, err := rc.RegisterTask(ctx, "t", "x", model.Weight{E: 1, P: 2}); err != nil {
		t.Fatalf("RegisterTask through router: %v", err)
	}

	// Phase 1: traffic through the router into the original leader.
	issued, acked := 0, 0
	for i := 0; i < 30; i++ {
		issued++
		if _, err := rc.SubmitJobKeyed(ctx, "t", server.SubmitJobRequest{Task: "x", Key: fmt.Sprintf("pre%d", i)}); err != nil {
			t.Fatalf("submit %d through router: %v", i, err)
		}
		acked++
		if i%4 == 3 {
			if _, err := rc.AdvanceBy(ctx, "t", "1"); err != nil {
				t.Fatalf("advance through router: %v", err)
			}
		}
	}

	// Quiesce and let both followers drain the leader's durable prefix —
	// the precondition for a lossless failover.
	waitCaughtUp(t, f1srv, f1hs.URL, lhs.URL)
	waitCaughtUp(t, f2srv, f2hs.URL, lhs.URL)

	// Kill the leader.
	mark("kill")
	lsrv.Shutdown()
	lhs.Close()
	killed := time.Now()

	// Reads fail over to a follower while the group is leaderless.
	if _, err := rc.Tenant(ctx, "t"); err != nil {
		t.Fatalf("read during the outage: %v", err)
	}

	// The first write after the kill measures failover: router detects
	// the dead leader, promotes the most caught-up follower, and the
	// retried keyed submit lands on the new timeline.
	subCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	if _, err := rc.SubmitJobKeyed(subCtx, "t", server.SubmitJobRequest{Task: "x", Key: "post0"}); err != nil {
		cancel()
		t.Fatalf("first write after leader kill never succeeded: %v", err)
	}
	cancel()
	mark("ack")
	issued++
	acked++
	t.Logf("first post-kill write acked after %v", time.Since(killed))

	// Exactly one follower was promoted, once, between the kill and the ack.
	var leaders []string
	for _, u := range []string{f1hs.URL, f2hs.URL} {
		if h, _ := health(t, u); h.Role == "leader" {
			leaders = append(leaders, u)
		}
	}
	if len(leaders) != 1 {
		t.Fatalf("%d nodes claim leadership after failover, want exactly 1", len(leaders))
	}
	evMu.Lock()
	order := append([]string(nil), events...)
	evMu.Unlock()
	assertEventOrder(t, order, "kill", "promoting "+leaders[0], "promoted "+leaders[0]+":", "ack")
	if n := countPrefix(order, "promoted "); n != 1 {
		t.Fatalf("%d successful promotions, want 1: %q", n, order)
	}

	// Phase 2: traffic continues through the router into the new leader.
	for i := 1; i < 30; i++ {
		issued++
		if _, err := rc.SubmitJobKeyed(ctx, "t", server.SubmitJobRequest{Task: "x", Key: fmt.Sprintf("post%d", i)}); err != nil {
			t.Fatalf("submit %d after failover: %v", i, err)
		}
		acked++
		if i%4 == 3 {
			if _, err := rc.AdvanceBy(ctx, "t", "1"); err != nil {
				t.Fatalf("advance after failover: %v", err)
			}
		}
	}

	if _, err := rc.Drain(ctx, "t"); err != nil {
		t.Fatalf("Drain through router: %v", err)
	}
	info, err := rc.Tenant(ctx, "t")
	if err != nil {
		t.Fatalf("Tenant through router: %v", err)
	}
	recovered := int(info.Dispatches) // one E=1 subtask per job
	if recovered < acked || recovered > issued {
		t.Fatalf("acked ≤ recovered ≤ issued violated across failover: acked %d, recovered %d, issued %d",
			acked, recovered, issued)
	}
	assertTardinessBound(t, info)
}

// TestRouterShardsTenants pins the sharding front: tenants land on the
// group rendezvous hashing predicts and only there, a second create of an id
// is refused and leaves it where it was, follow-up requests route there, and
// the router merges every group's tenant list. The ids include
// TestOddIDsRoundTrip's (internal/client): one holding '/', '?', '%' or a
// space must cross the router as the one path segment the client sent.
func TestRouterShardsTenants(t *testing.T) {
	backends := make([]*hoptest.Server, 2)
	for i := range backends {
		srv := server.New()
		defer srv.Shutdown()
		backends[i] = hoptest.NewServer(srv.Handler())
		defer backends[i].Close()
	}

	router, err := cluster.NewRouter(cluster.RouterOptions{
		Groups:         [][]string{{backends[0].URL}, {backends[1].URL}},
		HealthInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	router.Start()
	defer router.Close()
	rhs := hoptest.NewServer(router.Handler())
	defer rhs.Close()

	ctx := context.Background()
	rc := client.New(rhs.URL, nil)
	ids := []string{"a?b", "a#b", "50%", "a%2Fb", "a/b", "a b", "é", "plain-id_1.2", "x/1", "y/z/w"}
	for i := 0; i < 8; i++ {
		ids = append(ids, fmt.Sprintf("t%d", i))
	}
	seen := map[int]int{}
	for _, id := range ids {
		if _, err := rc.CreateTenant(ctx, id, 1, ""); err != nil {
			t.Fatalf("CreateTenant %q: %v", id, err)
		}
		var ae *client.APIError
		if _, err := rc.CreateTenant(ctx, id, 1, ""); !errors.As(err, &ae) || ae.Status != http.StatusConflict {
			t.Fatalf("second CreateTenant %q: %v, want HTTP 409", id, err)
		}
		want := cluster.RendezvousGroup(id, 2)
		seen[want]++
		// The tenant must exist on the predicted backend and only there.
		bc := client.New(backends[want].URL, nil)
		if _, err := bc.Tenant(ctx, id); err != nil {
			t.Fatalf("tenant %q missing from predicted group %d: %v", id, want, err)
		}
		oc := client.New(backends[1-want].URL, nil)
		if _, err := oc.Tenant(ctx, id); err == nil {
			t.Fatalf("tenant %q present on both groups", id)
		}
		// A follow-up write through the router reaches the right group.
		if _, err := rc.RegisterTask(ctx, id, "x", model.Weight{E: 1, P: 2}); err != nil {
			t.Fatalf("RegisterTask %q through router: %v", id, err)
		}
		if info, err := bc.Tenant(ctx, id); err != nil || info.Tasks != 1 {
			t.Fatalf("tenant %q on group %d has %d tasks (err %v), want 1", id, want, info.Tasks, err)
		}
		if info, err := rc.Tenant(ctx, id); err != nil || info.ID != id {
			t.Fatalf("Tenant %q through router: %+v, %v", id, info, err)
		}
	}
	if seen[0] == 0 || seen[1] == 0 {
		t.Fatalf("rendezvous put all %d tenants on one group: %v", len(ids), seen)
	}

	infos, err := rc.Tenants(ctx)
	if err != nil {
		t.Fatalf("merged tenant list: %v", err)
	}
	if len(infos) != len(ids) {
		t.Fatalf("router merged %d tenants, want %d", len(infos), len(ids))
	}
	for _, id := range ids {
		if err := rc.DeleteTenant(ctx, id); err != nil {
			t.Fatalf("DeleteTenant %q through router: %v", id, err)
		}
	}
	if infos, err := rc.Tenants(ctx); err != nil || len(infos) != 0 {
		t.Fatalf("merged tenant list after every delete: %d tenants, %v", len(infos), err)
	}
}

// TestRouterKeepsLengthAndStreamsLive pins the two shapes a proxied reply
// has. A reply the backend sent with a Content-Length crosses the router
// with it — not re-framed as a chunked stream — and a dispatch feed, whose
// length nobody knows, still delivers each frame as it is made: the reader
// below gets a decision while the stream is open, before any other exists.
func TestRouterKeepsLengthAndStreamsLive(t *testing.T) {
	srv := server.New()
	defer srv.Shutdown()
	backend := hoptest.NewServer(srv.Handler())
	defer backend.Close()
	router, err := cluster.NewRouter(cluster.RouterOptions{
		Groups:         [][]string{{backend.URL}},
		HealthInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	router.Start()
	defer router.Close()
	rhs := hoptest.NewServer(router.Handler())
	defer rhs.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rc := client.New(rhs.URL, nil)
	if _, err := rc.CreateTenant(ctx, "t", 1, ""); err != nil {
		t.Fatalf("CreateTenant: %v", err)
	}
	if _, err := rc.RegisterTask(ctx, "t", "x", model.Weight{E: 1, P: 2}); err != nil {
		t.Fatalf("RegisterTask: %v", err)
	}

	st, err := rc.StreamDispatches(ctx, "t", 0, true)
	if err != nil {
		t.Fatalf("StreamDispatches through the router: %v", err)
	}
	defer st.Close()

	resp, err := http.Post(rhs.URL+"/v1/tenants/t/jobs", "application/json", strings.NewReader(`{"task":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("proxied submit: HTTP %d, %v", resp.StatusCode, err)
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 || len(body) == 0 {
		t.Fatalf("proxied submit reply: Content-Length %d, Transfer-Encoding %v, %d body bytes; want the backend's length, not a chunked stream",
			resp.ContentLength, resp.TransferEncoding, len(body))
	}

	if _, err := rc.AdvanceBy(ctx, "t", "1"); err != nil {
		t.Fatalf("AdvanceBy: %v", err)
	}
	ev, err := st.Next()
	if err != nil || ev.Seq != 0 || ev.Task != "x" {
		t.Fatalf("live frame through the router: %+v, %v", ev, err)
	}
}

// TestRouterRefusesOversizeBody: the router buffers a request body to be
// able to resend it, up to pfaird's own 1 MiB cap. A body over the cap used
// to be cut at the cap and proxied, so the leader answered for a request
// nobody sent ("unexpected EOF"); it is refused at the router with pfaird's
// status and words, and nothing reaches a backend. A body of exactly the cap
// still goes through.
func TestRouterRefusesOversizeBody(t *testing.T) {
	srv := server.New()
	defer srv.Shutdown()
	var posts atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts.Add(1)
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer backend.Close()
	router, err := cluster.NewRouter(cluster.RouterOptions{
		Groups:         [][]string{{backend.URL}},
		HealthInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	router.Start()
	defer router.Close()
	rhs := hoptest.NewServer(router.Handler())
	defer rhs.Close()

	post := func(url, path string, body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		reply, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(reply)
	}
	pad := func(value string, n int) []byte {
		return append([]byte(value), bytes.Repeat([]byte(" "), n-len(value))...)
	}
	waitFor(t, 5*time.Second, "the router to find its leader", func() bool {
		code, _ := post(rhs.URL, "/v1/tenants", []byte(`{"id":"t","m":1}`))
		return code == http.StatusCreated || code == http.StatusConflict
	})
	if code, reply := post(rhs.URL, "/v1/tenants/t/tasks", []byte(`{"name":"x","e":1,"p":2}`)); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, reply)
	}

	if code, reply := post(rhs.URL, "/v1/tenants/t/jobs", pad(`{"task":"x"}`, 1<<20)); code != http.StatusAccepted {
		t.Errorf("a body of exactly 1 MiB through the router: %d %s", code, reply)
	}
	before := posts.Load()
	for _, path := range []string{"/v1/tenants/t/jobs", "/v1/tenants"} {
		// One value that runs past the cap: cut there, it ends mid-string.
		body := []byte(`{"task":"` + strings.Repeat("x", 1<<20) + `"}`)
		wantCode, want := post(backend.URL, path, body)
		if wantCode != http.StatusBadRequest || !strings.Contains(want, "request body too large") {
			t.Fatalf("pfaird itself on %s: %d %s", path, wantCode, want)
		}
		if code, reply := post(rhs.URL, path, body); code != wantCode || reply != want {
			t.Errorf("a body of 1 MiB + 1 on %s through the router: %d %s; pfaird answers %d %s", path, code, reply, wantCode, want)
		}
	}
	if got := posts.Load() - before; got != 2 {
		t.Errorf("the backend saw %d POSTs, want the 2 sent to it directly: the router must proxy none", got)
	}
}

// TestRouterPprof: profiles are served beside the proxy routes once enabled,
// and not before.
func TestRouterPprof(t *testing.T) {
	for _, on := range []bool{false, true} {
		router, err := cluster.NewRouter(cluster.RouterOptions{Groups: [][]string{{"http://127.0.0.1:1"}}})
		if err != nil {
			t.Fatalf("NewRouter: %v", err)
		}
		if on {
			router.EnablePprof()
		}
		rw := httptest.NewRecorder()
		router.Handler().ServeHTTP(rw, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
		if want := map[bool]int{false: http.StatusNotFound, true: http.StatusOK}[on]; rw.Code != want {
			t.Errorf("pprof enabled %v: GET /debug/pprof/cmdline = %d, want %d", on, rw.Code, want)
		}
	}
}

// assertEventOrder fails unless events holds, in order, a line that equals
// or contains each of want.
func assertEventOrder(t *testing.T, events []string, want ...string) {
	t.Helper()
	i := 0
	for _, ev := range events {
		if i < len(want) && strings.Contains(ev, want[i]) {
			i++
		}
	}
	if i < len(want) {
		t.Fatalf("event %q not found after %q in %q", want[i], want[:i], events)
	}
}

// countPrefix counts the events starting with prefix.
func countPrefix(events []string, prefix string) int {
	n := 0
	for _, ev := range events {
		if strings.HasPrefix(ev, prefix) {
			n++
		}
	}
	return n
}

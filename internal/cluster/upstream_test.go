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
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeBackend is a pfaird stand-in whose replies a test scripts. It answers
// the router's health probe as a leader, hands every other request to handle,
// and counts the connections it accepted.
type fakeBackend struct {
	*httptest.Server
	accepted atomic.Int64
}

func newFakeBackend(t *testing.T, handle http.HandlerFunc) *fakeBackend {
	t.Helper()
	fb := &fakeBackend{}
	fb.Server = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/replication/status" {
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"role":"leader"}`+"\n")
			return
		}
		handle(w, r)
	}))
	fb.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			fb.accepted.Add(1)
		}
	}
	fb.Start()
	t.Cleanup(fb.Close)
	return fb
}

// frontFor starts a router over one backend and an HTTP front for it, and
// returns once the router has found its leader. The health interval is an
// hour: after the first probe round the pool is the test's alone, so its
// counters can be asserted exactly.
func frontFor(t *testing.T, backend string) (*Router, *httptest.Server) {
	t.Helper()
	r, err := NewRouter(RouterOptions{Groups: [][]string{{backend}}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	r.Start()
	t.Cleanup(r.Close)
	front := httptest.NewServer(r.Handler())
	t.Cleanup(front.Close)
	waitLeader(t, r)
	return r, front
}

func waitLeader(t *testing.T, r *Router) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for r.table.Load().groups[0].leader < 0 {
		if time.Now().After(deadline) {
			t.Fatal("the router never found its leader")
		}
		time.Sleep(time.Millisecond)
	}
}

// poolStats reads one backend's pool numbers the way an operator does: from
// the router's /healthz body.
func poolStats(t *testing.T, front string) RouterBackendHealth {
	t.Helper()
	resp, err := http.Get(front + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var h RouterHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode /healthz: %v", err)
	}
	if len(h.Groups) != 1 || len(h.Groups[0].Backends) != 1 {
		t.Fatalf("/healthz: %+v, want one group of one backend", h)
	}
	return h.Groups[0].Backends[0]
}

func do(t *testing.T, method, url, contentType, body string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	hc := http.Client{Timeout: 10 * time.Second} // a reply that hangs fails the test, not the suite
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading the reply: %v", method, url, err)
	}
	return resp, string(reply)
}

// seen is what a backend can tell about a request it received.
type seen struct {
	Method, Target, Host, ContentType string
	ContentLength                     []string // the header as sent: absent, or one value
	TransferEncoding                  []string
	Body                              string
}

// parentFront is proxyOnce's request as it stood on net/http's client — the
// reference the new path is held to: same URL concatenation, same body reader,
// same one header copied, sent by http.DefaultClient.
func parentFront(backend string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		body, _ := io.ReadAll(req.Body)
		target := backend + req.URL.Path
		if req.URL.RawQuery != "" {
			target += "?" + req.URL.RawQuery
		}
		out, err := http.NewRequestWithContext(req.Context(), req.Method, target, bytes.NewReader(body))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		if ct := req.Header.Get("Content-Type"); ct != "" {
			out.Header.Set("Content-Type", ct)
		}
		resp, err := http.DefaultClient.Do(out)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	})
}

// TestUpstreamSendsWhatHTTPClientSent is the differential test of the request
// half: for every shape of request the router proxies, a backend sees the
// same method, request-target, Host, Content-Type, Content-Length and body
// from the hand-written request as it saw from http.Client's. (User-Agent and
// Accept-Encoding: gzip are no longer sent; nothing read them.) That includes
// what the old path did to an escaped path: it forwarded the decoded one,
// escaped again, so %2F reaches the backend as a slash — kept, not endorsed.
func TestUpstreamSendsWhatHTTPClientSent(t *testing.T) {
	var mu sync.Mutex
	var last seen
	fb := newFakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		last = seen{r.Method, r.RequestURI, r.Host, r.Header.Get("Content-Type"),
			r.Header["Content-Length"], r.TransferEncoding, string(body)}
		mu.Unlock()
		io.WriteString(w, "{}\n")
	})
	_, front := frontFor(t, fb.URL)
	parent := httptest.NewServer(parentFront(fb.URL))
	defer parent.Close()

	const js = "application/json"
	for _, tc := range []struct{ method, target, contentType, body string }{
		{"POST", "/v1/tenants", js, `{"id":"t","m":1}`},
		{"POST", "/v1/tenants/t/jobs", js, `{"task":"x","key":"k1"}`},
		{"POST", "/v1/tenants/t/jobs:batch", js, `{"jobs":[{"task":"x"},{"task":"y"}]}`},
		{"POST", "/v1/tenants/t/drain", "", ""},
		{"POST", "/v1/tenants/t/advance", js, ""},
		{"DELETE", "/v1/tenants/t", "", ""},
		{"DELETE", "/v1/tenants/t/tasks/x", "", ""},
		{"GET", "/v1/tenants/t", "", ""},
		{"GET", "/v1/tenants/t/dispatches?from=0&follow=true", "", ""},
		{"GET", "/v1/tenants/t/dispatches?", "", ""},
		{"GET", "/v1/tenants/a%2Fb/tasks", "", ""},
		{"GET", "/v1/tenants/a%20b", "", ""},
		{"GET", "/v1/tenants/%C3%A9", "", ""},
		{"GET", "/v1/tenants/t/tasks/a!b'(c)*d;e=f,g@h:i$j&k+l", "", ""},
		{"GET", "/v1/tenants/t/tasks/x?q=%C3%A9%20&r=a+b", "", ""},
		{"PUT", "/v1/tenants/t/whatever", "text/plain; charset=utf-8", ""},
		{"HEAD", "/v1/tenants/t", "", ""},
	} {
		var got [2]seen
		for i, base := range []string{front.URL, parent.URL} {
			mu.Lock()
			last = seen{}
			mu.Unlock()
			resp, _ := do(t, tc.method, base+tc.target, tc.contentType, tc.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s through %s: HTTP %d", tc.method, tc.target, base, resp.StatusCode)
			}
			mu.Lock()
			got[i] = last
			mu.Unlock()
		}
		if got[0].Method == "" || fmt.Sprint(got[0]) != fmt.Sprint(got[1]) {
			t.Errorf("%s %s: the backend saw\n  %+v from the router,\n  %+v from http.Client", tc.method, tc.target, got[0], got[1])
		}
	}
}

// TestUpstreamReplyShapes: every shape of reply pfaird makes crosses the
// router as it was sent, and leaves the connection in the state it should.
func TestUpstreamReplyShapes(t *testing.T) {
	big := strings.Repeat(`{"at":"0","pending":1},`, 200) // a batch reply over 2 KiB: net/http chunks it
	release := make(chan struct{})
	fb := newFakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		switch strings.TrimPrefix(r.URL.Path, "/v1/tenants/t") {
		case "": // tenant delete: no body and no length, the reply that hung a hand-written parser
			w.WriteHeader(http.StatusNoContent)
		case "/jobs":
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Length", "24")
			w.WriteHeader(http.StatusAccepted)
			io.WriteString(w, `{"at":"0","pending":17}`+"\n")
		case "/jobs:batch":
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, big)
		case "/dispatches":
			w.Header().Set("Content-Type", "application/x-ndjson")
			io.WriteString(w, `{"seq":0}`+"\n")
			w.(http.Flusher).Flush()
			<-release // the second frame does not exist until the first was read
			io.WriteString(w, `{"seq":1}`+"\n")
		case "/tasks":
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusConflict)
			io.WriteString(w, `{"admitted":false,"reason":"Σwt > M"}`+"\n")
		case "/advance":
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			io.WriteString(w, `{"error":"ring full"}`+"\n")
		case "/resize":
			w.Header().Set("Connection", "close")
			io.WriteString(w, `{"m":2}`+"\n")
		default:
			http.NotFound(w, r)
		}
	})
	_, front := frontFor(t, fb.URL)
	base := front.URL + "/v1/tenants/t"

	resp, body := do(t, "DELETE", base, "", "")
	if resp.StatusCode != http.StatusNoContent || body != "" {
		t.Errorf("204 without a length: got %d %q", resp.StatusCode, body)
	}

	resp, body = do(t, "POST", base+"/jobs", "application/json", `{"task":"x"}`)
	if resp.StatusCode != http.StatusAccepted || body != `{"at":"0","pending":17}`+"\n" ||
		resp.ContentLength != 24 || len(resp.TransferEncoding) != 0 || resp.Header.Get("Content-Type") != "application/json" {
		t.Errorf("declared length: got %d %q, Content-Length %d, Transfer-Encoding %v, Content-Type %q",
			resp.StatusCode, body, resp.ContentLength, resp.TransferEncoding, resp.Header.Get("Content-Type"))
	}

	resp, body = do(t, "POST", base+"/jobs:batch", "application/json", `{"jobs":[]}`)
	if resp.StatusCode != http.StatusOK || body != big || resp.ContentLength != -1 {
		t.Errorf("chunked reply of %d bytes: got %d, %d bytes, Content-Length %d", len(big), resp.StatusCode, len(body), resp.ContentLength)
	}

	resp, body = do(t, "POST", base+"/tasks", "application/json", `{"name":"x","e":3,"p":2}`)
	if resp.StatusCode != http.StatusConflict || !strings.Contains(body, "Σwt > M") {
		t.Errorf("409 with its body: got %d %q", resp.StatusCode, body)
	}

	resp, body = do(t, "POST", base+"/advance", "application/json", `{"by":"1"}`)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "7" || !strings.Contains(body, "ring full") {
		t.Errorf("429: got %d, Retry-After %q, %q", resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}

	// Five replies read to their end: one connection, dialed by the first
	// probe, carried them all and is idle again.
	if st := poolStats(t, front.URL); st.Dials != 1 || st.Reuses != 5 || st.Idle != 1 {
		t.Errorf("after five unary replies: %+v, want 1 dial, 5 reuses, 1 idle", st)
	}

	// A live feed: the first frame is read while the second does not exist.
	feed, err := http.Get(base + "/dispatches?from=0&follow=true")
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Body.Close()
	lines := bufio.NewReader(feed.Body)
	if line, err := lines.ReadString('\n'); err != nil || line != `{"seq":0}`+"\n" {
		t.Fatalf("first live frame: %q, %v", line, err)
	}
	if st := poolStats(t, front.URL); st.Idle != 0 {
		t.Errorf("a feed in flight: %+v, want its connection out of the pool", st)
	}
	close(release)
	if line, err := lines.ReadString('\n'); err != nil || line != `{"seq":1}`+"\n" {
		t.Fatalf("second live frame: %q, %v", line, err)
	}
	if _, err := lines.ReadString('\n'); err != io.EOF {
		t.Fatalf("end of the feed: %v, want EOF", err)
	}
	if feed.Header.Get("Content-Type") != "application/x-ndjson" {
		t.Errorf("feed Content-Type %q", feed.Header.Get("Content-Type"))
	}

	// Connection: close is obeyed: the reply crosses, the connection is not kept.
	resp, body = do(t, "POST", base+"/resize", "application/json", `{"m":2}`)
	if resp.StatusCode != http.StatusOK || body != `{"m":2}`+"\n" {
		t.Errorf("Connection: close reply: got %d %q", resp.StatusCode, body)
	}
	if st := poolStats(t, front.URL); st.Idle != 0 || st.Dials != 1 {
		t.Errorf("after Connection: close: %+v, want nothing pooled and still 1 dial", st)
	}
	do(t, "DELETE", base, "", "")
	if st := poolStats(t, front.URL); st.Dials != 2 || st.Idle != 1 || st.StaleDiscards != 0 {
		t.Errorf("the request after it: %+v, want a second dial, pooled, nothing stale", st)
	}
}

// TestUpstreamErrorWritesNothing pins proxyOnce's contract at its two failing
// ends: a 5xx reply and a backend that is not there are errors, and the
// client's ResponseWriter has not been touched — the caller may still answer.
func TestUpstreamErrorWritesNothing(t *testing.T) {
	fb := newFakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		w.Header().Set("Retry-After", "99")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "server: follower: writes go to the leader\n")
	})
	r, _ := frontFor(t, fb.URL)
	gone, err := newUpstream("http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		up   *upstream
		want string
	}{
		{r.ups[0][0], "HTTP 503: server: follower: writes go to the leader"},
		{gone, "connection refused"},
	} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/tenants/t/jobs", nil)
		status, err := proxyOnce(rec, req, tc.up, []byte(`{"task":"x"}`))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: proxyOnce = %d, %v; want an error naming %q", tc.up.url, status, err, tc.want)
		}
		if rec.Flushed || rec.Body.Len() != 0 || len(rec.Header()) != 0 {
			t.Errorf("%s: a failed proxyOnce wrote to the client: headers %v, body %q", tc.up.url, rec.Header(), rec.Body)
		}
	}
	// Read through its 4 KiB cap to its end, the 503's connection is reusable.
	if idle := r.ups[0][0].idleNow(); idle != 1 {
		t.Errorf("after a 503 with a short body: %d idle connections, want 1", idle)
	}
}

// waitPoolSeesClose returns once the kernel has delivered the peer's close to
// every pooled connection: a FIN crosses loopback in microseconds, but after
// the closing call has returned, and a request sent inside that window fails
// on any HTTP client (the write is accepted, the read finds the close).
func waitPoolSeesClose(t *testing.T, up *upstream) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		up.mu.Lock()
		live := 0
		for _, uc := range up.idle {
			if uc.usable() {
				live++
			}
		}
		up.mu.Unlock()
		if live == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d pooled connections never saw the backend's close", live)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestUpstreamStalePool: a pooled connection the backend has closed is found
// before a byte is written, so the next request — of any method, keyed or
// not — goes out once on a fresh connection and succeeds. What cannot be
// known safe is not resent here: a backend that took the request and died
// without replying costs an un-keyed POST a 503 after one backend hit, and a
// keyed one proxyToGroup's resend.
func TestUpstreamStalePool(t *testing.T) {
	var posts, drop atomic.Int64
	fb := newFakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		posts.Add(1)
		if drop.Add(-1) >= 0 {
			c, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				c.Close() // the request was read; no reply will come
			}
			return
		}
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, `{"at":"0","pending":1}`+"\n")
	})
	r, front := frontFor(t, fb.URL)
	url := front.URL + "/v1/tenants/t/jobs"

	const rounds = 20
	for i := 0; i < rounds; i++ {
		if resp, body := do(t, "POST", url, "application/json", `{"task":"x"}`); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("round %d: un-keyed POST on a warm pool: %d %s", i, resp.StatusCode, body)
		}
		fb.CloseClientConnections()
		waitPoolSeesClose(t, r.ups[0][0])
		if resp, body := do(t, "POST", url, "application/json", `{"task":"x"}`); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("round %d: un-keyed POST after the backend closed the pool's connections: %d %s", i, resp.StatusCode, body)
		}
	}
	if got := posts.Load(); got != 2*rounds {
		t.Errorf("the backend handled %d POSTs for %d requests: each must reach it exactly once", got, 2*rounds)
	}
	st := poolStats(t, front.URL)
	if st.StaleDiscards != rounds || st.Dials != rounds+1 || st.Resends != 0 {
		t.Errorf("pool after %d stale rounds: %+v, want %d stale discards, %d dials, 0 resends", rounds, st, rounds, rounds+1)
	}

	// The backend reads the request and closes without a reply.
	posts.Store(0)
	drop.Store(1)
	resp, body := do(t, "POST", url, "application/json", `{"task":"x"}`)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" || posts.Load() != 1 {
		t.Errorf("un-keyed POST the backend dropped: %d %s after %d backend hits; want 503 after exactly 1", resp.StatusCode, body, posts.Load())
	}
	posts.Store(0)
	drop.Store(1)
	resp, body = do(t, "POST", url, "application/json", `{"task":"x","key":"k1"}`)
	if resp.StatusCode != http.StatusAccepted || posts.Load() != 2 {
		t.Errorf("keyed POST the backend dropped once: %d %s after %d backend hits; want 202 on the resend, 2 hits", resp.StatusCode, body, posts.Load())
	}
	if st := poolStats(t, front.URL); st.Resends != 0 {
		t.Errorf("%+v: the upstream layer itself resent a request that had reached a backend", st)
	}
}

// TestUpstreamHangUpEndsBackendRequest: a client that leaves a live feed
// takes the upstream connection with it — the backend's handler sees its
// context end within a second instead of writing frames to nobody — and a
// closed router keeps no connection and no goroutine.
func TestUpstreamHangUpEndsBackendRequest(t *testing.T) {
	ended := make(chan struct{})
	fb := newFakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/dispatches") {
			io.WriteString(w, "{}\n")
			return
		}
		io.WriteString(w, `{"seq":0}`+"\n")
		w.(http.Flusher).Flush()
		<-r.Context().Done()
		close(ended)
	})
	r, front := frontFor(t, fb.URL)

	hc := &http.Client{Transport: &http.Transport{}}
	ctx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	req, _ := http.NewRequestWithContext(ctx, "GET", front.URL+"/v1/tenants/t/dispatches?from=0&follow=true", nil)
	feed, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Body.Close()
	if line, err := bufio.NewReader(feed.Body).ReadString('\n'); err != nil || line != `{"seq":0}`+"\n" {
		t.Fatalf("first live frame: %q, %v", line, err)
	}
	hangUp()
	select {
	case <-ended:
	case <-time.After(time.Second):
		t.Fatal("1 s after the client hung up, the backend's handler is still serving the feed")
	}

	// A unary request leaves a connection in the pool for Close to find.
	if resp, err := hc.Get(front.URL + "/v1/tenants/t"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET after the hang-up: %v, %v", resp, err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if idle := r.ups[0][0].idleNow(); idle != 1 {
		t.Fatalf("%d idle connections before Close, want 1", idle)
	}
	hc.CloseIdleConnections()
	front.Close()
	r.Close()
	if idle := r.ups[0][0].idleNow(); idle != 0 {
		t.Errorf("%d idle connections after Close", idle)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		stacks := make([]byte, 1<<20)
		stacks = stacks[:runtime.Stack(stacks, true)]
		var left []string
		for _, g := range strings.Split(string(stacks), "\n\n") {
			if strings.Contains(g, "cluster.(*Router)") || strings.Contains(g, "cluster.(*upstream") || strings.Contains(g, "cluster.proxyOnce") {
				left = append(left, g)
			}
		}
		if len(left) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines of the closed router still running:\n%s", strings.Join(left, "\n\n"))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestUpstreamPoolBound: eight clients at once need eight connections, and
// 1600 requests later the backend has still accepted no more than that —
// net/http's default of two idle connections per host had the other six
// redialing all along.
func TestUpstreamPoolBound(t *testing.T) {
	fb := newFakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, `{"at":"0","pending":1}`+"\n")
	})
	_, front := frontFor(t, fb.URL)

	const clients, each = 8, 200
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer hc.CloseIdleConnections()
	var wg sync.WaitGroup
	var failed atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				resp, err := hc.Post(front.URL+"/v1/tenants/t/jobs", "application/json", strings.NewReader(`{"task":"x"}`))
				if err != nil {
					failed.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Errorf("%d of %d requests failed", n, clients*each)
	}
	st := poolStats(t, front.URL)
	if got := fb.accepted.Load(); got > clients || st.Dials != got {
		t.Errorf("the backend accepted %d connections (the pool counts %d dials) for %d concurrent clients", got, st.Dials, clients)
	}
	if st.Reuses < clients*each-clients || st.StaleDiscards != 0 || st.Resends != 0 || st.Idle != int(st.Dials) {
		t.Errorf("pool after %d requests: %+v", clients*each, st)
	}
}

// TestUpstreamRefusesHeadInjection: the request head is assembled by hand, so
// nothing that could end a line or split the request line goes into it, even
// though the inbound net/http server refuses such requests first.
func TestUpstreamRefusesHeadInjection(t *testing.T) {
	var hits atomic.Int64
	fb := newFakeBackend(t, func(w http.ResponseWriter, r *http.Request) { hits.Add(1) })
	up, err := newUpstream(fb.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer up.closeIdle()
	for _, tc := range []struct{ method, target, contentType string }{
		{"GET", "/v1/tenants/t\r\nX-Evil: 1", ""},
		{"GET", "/v1/tenants/t HTTP/1.1\r\n\r\nGET /evil", ""},
		{"GET", "/v1/tenants/t?a=b c", ""},
		{"GET", "v1/tenants/t", ""},
		{"GET", "", ""},
		{"GET /evil", "/v1/tenants/t", ""},
		{"", "/v1/tenants/t", ""},
		{"POST", "/v1/tenants/t/jobs", "application/json\r\nX-Evil: 1"},
		{"POST", "/v1/tenants/t/jobs", "application/json\nTransfer-Encoding: chunked"},
	} {
		if resp, err := up.roundTrip(context.Background(), tc.method, tc.target, tc.contentType, nil); err == nil {
			resp.Body.Close()
			t.Errorf("roundTrip(%q, %q, %q) was sent", tc.method, tc.target, tc.contentType)
		}
	}
	if up.dials.Load() != 0 || hits.Load() != 0 {
		t.Errorf("%d dials, %d backend hits: a refused request must not touch the network", up.dials.Load(), hits.Load())
	}
	resp, err := up.roundTrip(context.Background(), "POST", "/v1/tenants/t/jobs", "text/plain;\tcharset=utf-8", nil)
	if err != nil {
		t.Fatalf("a tab inside a field value is legal: %v", err)
	}
	resp.Body.Close()
}

package hop

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// backend is a test server that counts the connections it accepted.
type backend struct {
	*httptest.Server
	accepted atomic.Int64
}

func newBackend(t *testing.T, handle http.HandlerFunc) *backend {
	t.Helper()
	b := &backend{Server: httptest.NewUnstartedServer(handle)}
	b.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			b.accepted.Add(1)
		}
	}
	b.Start()
	t.Cleanup(b.Close)
	return b
}

func newUpstream(t *testing.T, url string) *Upstream {
	t.Helper()
	up, err := New(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(up.CloseIdle)
	return up
}

// send makes one round trip and reads the reply to its end.
func send(up *Upstream, method, target, body string) (int, string, error) {
	resp, err := up.RoundTrip(context.Background(), method, target, "application/json", []byte(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(reply), err
}

// TestUpstreamRefusesHeadInjection: the request head is assembled by hand, so
// nothing that could end a line or split the request line goes into it.
func TestUpstreamRefusesHeadInjection(t *testing.T) {
	var hits atomic.Int64
	b := newBackend(t, func(w http.ResponseWriter, r *http.Request) { hits.Add(1) })
	up := newUpstream(t, b.URL)
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
		if resp, err := up.RoundTrip(context.Background(), tc.method, tc.target, tc.contentType, nil); err == nil {
			resp.Body.Close()
			t.Errorf("RoundTrip(%q, %q, %q) was sent", tc.method, tc.target, tc.contentType)
		}
	}
	if up.Dials.Load() != 0 || hits.Load() != 0 {
		t.Errorf("%d dials, %d backend hits: a refused request must not touch the network", up.Dials.Load(), hits.Load())
	}
	resp, err := up.RoundTrip(context.Background(), "POST", "/v1/tenants/t/jobs", "text/plain;\tcharset=utf-8", nil)
	if err != nil {
		t.Fatalf("a tab inside a field value is legal: %v", err)
	}
	resp.Body.Close()
}

// waitPoolSeesClose returns once the kernel has delivered the peer's close to
// every pooled connection: a FIN crosses loopback in microseconds, but after
// the closing call has returned, and a request sent inside that window fails
// on any HTTP client (the write is accepted, the read finds the close).
func waitPoolSeesClose(t *testing.T, up *Upstream) {
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
// before a byte is written, so the next request — of any method — goes out
// once on a fresh connection and succeeds. What cannot be known safe is not
// resent here: a backend that took the request and died without replying
// costs the request an error after one backend hit, whatever its method, and
// the caller decides whether it may go again.
func TestUpstreamStalePool(t *testing.T) {
	var posts, drop atomic.Int64
	b := newBackend(t, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		posts.Add(1)
		if drop.Add(-1) >= 0 {
			if c, _, err := w.(http.Hijacker).Hijack(); err == nil {
				c.Close() // the request was read; no reply will come
			}
			return
		}
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, `{"at":"0","pending":1}`+"\n")
	})
	up := newUpstream(t, b.URL)

	const rounds = 20
	for i := 0; i < rounds; i++ {
		if status, body, err := send(up, "POST", "/v1/tenants/t/jobs", `{"task":"x"}`); status != http.StatusAccepted {
			t.Fatalf("round %d: POST on a warm pool: %d %s %v", i, status, body, err)
		}
		b.CloseClientConnections()
		waitPoolSeesClose(t, up)
		if status, body, err := send(up, "POST", "/v1/tenants/t/jobs", `{"task":"x"}`); status != http.StatusAccepted {
			t.Fatalf("round %d: POST after the backend closed the pool's connections: %d %s %v", i, status, body, err)
		}
	}
	if got := posts.Load(); got != 2*rounds {
		t.Errorf("the backend handled %d POSTs for %d requests: each must reach it exactly once", got, 2*rounds)
	}
	if up.StaleDiscards.Load() != rounds || up.Dials.Load() != rounds+1 || up.Reuses.Load() != rounds-1 || up.Resends.Load() != 0 {
		t.Errorf("pool after %d stale rounds: %d stale discards, %d dials, %d reuses, %d resends; want %d, %d, %d, 0",
			rounds, up.StaleDiscards.Load(), up.Dials.Load(), up.Reuses.Load(), up.Resends.Load(), rounds, rounds+1, rounds-1)
	}

	posts.Store(0)
	drop.Store(1)
	if _, _, err := send(up, "POST", "/v1/tenants/t/jobs", `{"task":"x","key":"k1"}`); err == nil || posts.Load() != 1 {
		t.Errorf("a POST the backend dropped: %v after %d backend hits; want an error after exactly 1", err, posts.Load())
	}
	if up.Resends.Load() != 0 {
		t.Errorf("%d resends: the pool itself resent a request that had reached a backend", up.Resends.Load())
	}
}

// TestUpstreamPoolReuseAndBound: concurrent callers keep one connection each
// across rounds instead of redialing, and no more than maxIdleConns stay
// pooled when more than that were in flight at once.
func TestUpstreamPoolReuseAndBound(t *testing.T) {
	var gate sync.WaitGroup // the backend holds each reply until every caller of the round is in flight
	b := newBackend(t, func(w http.ResponseWriter, r *http.Request) {
		gate.Done()
		gate.Wait()
		io.WriteString(w, "{}\n")
	})
	up := newUpstream(t, b.URL)
	round := func(callers int) {
		gate.Add(callers)
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if status, _, err := send(up, "GET", "/v1/tenants", ""); err != nil || status != http.StatusOK {
					t.Errorf("GET: %d, %v", status, err)
				}
			}()
		}
		wg.Wait()
	}

	const callers = 16
	for i := 0; i < 3; i++ {
		round(callers)
	}
	if got := b.accepted.Load(); got != callers || up.Dials.Load() != callers || up.IdleNow() != callers {
		t.Errorf("3 rounds of %d concurrent callers: %d connections accepted, %d dials, %d idle; want %d each",
			callers, got, up.Dials.Load(), up.IdleNow(), callers)
	}
	round(maxIdleConns + 8)
	if idle := up.IdleNow(); idle != maxIdleConns {
		t.Errorf("after %d concurrent callers: %d idle connections, want the bound %d", maxIdleConns+8, idle, maxIdleConns)
	}
}

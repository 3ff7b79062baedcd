package client_test

import (
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

	"desyncpfair/internal/client"
	"desyncpfair/internal/hop/hoptest"
	"desyncpfair/internal/model"
	"desyncpfair/internal/server"
)

// seen is what a backend can tell about a request it received.
type seen struct {
	Method, Target, Host, ContentType string
	ContentLength                     []string // the header as sent: absent, or one value
	TransferEncoding                  []string
	Body                              string
}

// recorder is a backend that keeps the last request it received and answers
// every one 200 with a body each method can decode.
type recorder struct {
	mu   sync.Mutex
	last seen
}

func (rec *recorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	rec.mu.Lock()
	rec.last = seen{r.Method, r.RequestURI, r.Host, r.Header.Get("Content-Type"),
		r.Header["Content-Length"], r.TransferEncoding, string(body)}
	rec.mu.Unlock()
	switch {
	case r.Method == http.MethodGet && r.URL.Path == "/v1/tenants":
		io.WriteString(w, "[]\n")
	case r.Method == http.MethodGet && (r.URL.Path == "/metrics" || strings.HasSuffix(r.URL.Path, "/dispatches") || strings.HasSuffix(r.URL.Path, "/trace")):
	default:
		io.WriteString(w, "{}\n")
	}
}

func (rec *recorder) take() seen {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	s := rec.last
	rec.last = seen{}
	return s
}

// TestClientSendsWhatHTTPClientSent is the client's request differential, the
// twin of the router's TestUpstreamSendsWhatHTTPClientSent: for every method,
// a backend sees the same method, request-target, Host, Content-Type,
// Content-Length and body as it saw when the client built the request with
// http.NewRequest (base + path, the body encoding/json's bytes, Content-Type
// when there is a body) and sent it through an http.Client. User-Agent and
// Accept-Encoding are no longer sent.
func TestClientSendsWhatHTTPClientSent(t *testing.T) {
	rec := &recorder{}
	hs := httptest.NewServer(rec)
	defer hs.Close()
	c := client.New(hs.URL, nil)
	ctx := context.Background()
	batch := []server.SubmitJobRequest{{Task: "web"}, {Task: "db", At: "3", Key: "k2"}}

	for _, tc := range []struct {
		method, path string
		in           any
		call         func() error
	}{
		{"GET", "/healthz", nil, func() error { return c.Health(ctx) }},
		{"GET", "/metrics", nil, func() error { _, err := c.Metrics(ctx); return err }},
		{"POST", "/v1/tenants", server.CreateTenantRequest{ID: "t", M: 2, Policy: "PD2"},
			func() error { _, err := c.CreateTenant(ctx, "t", 2, "PD2"); return err }},
		{"GET", "/v1/tenants", nil, func() error { _, err := c.Tenants(ctx); return err }},
		{"GET", "/v1/tenants/t", nil, func() error { _, err := c.Tenant(ctx, "t"); return err }},
		{"GET", "/v1/tenants/a b", nil, func() error { _, err := c.Tenant(ctx, "a b"); return err }},
		{"GET", "/v1/tenants/é", nil, func() error { _, err := c.Tenant(ctx, "é"); return err }},
		{"DELETE", "/v1/tenants/t", nil, func() error { return c.DeleteTenant(ctx, "t") }},
		{"POST", "/v1/tenants/t/tasks", server.RegisterTaskRequest{Name: "web", E: 1, P: 2},
			func() error { _, err := c.RegisterTask(ctx, "t", "web", model.W(1, 2)); return err }},
		{"POST", "/v1/tenants/t/tasks", server.RegisterTaskRequest{Name: "a&é", E: 3, P: 7},
			func() error { _, err := c.RegisterTask(ctx, "t", "a&é", model.W(3, 7)); return err }},
		{"DELETE", "/v1/tenants/t/tasks/web", nil, func() error { return c.UnregisterTask(ctx, "t", "web") }},
		{"POST", "/v1/tenants/t/jobs", server.SubmitJobRequest{Task: "web", At: "5/2"},
			func() error { _, err := c.SubmitJob(ctx, "t", "web", "5/2"); return err }},
		{"POST", "/v1/tenants/t/jobs", server.SubmitJobRequest{Task: "web", Key: "k1"},
			func() error {
				_, err := c.SubmitJobKeyed(ctx, "t", server.SubmitJobRequest{Task: "web", Key: "k1"})
				return err
			}},
		{"POST", "/v1/tenants/t/jobs", server.SubmitJobRequest{Task: "web", Earliness: 2},
			func() error { _, err := c.SubmitJobEarly(ctx, "t", "web", "", 2); return err }},
		{"POST", "/v1/tenants/t/jobs:batch", server.SubmitJobsRequest{Jobs: batch},
			func() error { _, err := c.SubmitJobs(ctx, "t", batch); return err }},
		{"POST", "/v1/tenants/t/advance", server.AdvanceRequest{Until: "8"},
			func() error { _, err := c.Advance(ctx, "t", "8"); return err }},
		{"POST", "/v1/tenants/t/advance", server.AdvanceRequest{By: "1"},
			func() error { _, err := c.AdvanceBy(ctx, "t", "1"); return err }},
		{"POST", "/v1/tenants/t/drain", nil, func() error { _, err := c.Drain(ctx, "t"); return err }},
		{"POST", "/v1/tenants/t/resize", server.ResizeRequest{M: 3, Drain: true},
			func() error { _, err := c.Resize(ctx, "t", 3, true); return err }},
		{"GET", "/v1/tenants/t/dispatches?from=7&follow=false", nil, func() error {
			st, err := c.StreamDispatches(ctx, "t", 7, false)
			if err == nil {
				st.Close()
			}
			return err
		}},
		{"GET", "/v1/tenants/t/trace?from=0&follow=true", nil, func() error {
			st, err := c.StreamTrace(ctx, "t", 0, true)
			if err == nil {
				st.Close()
			}
			return err
		}},
	} {
		if err := tc.call(); err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		got := rec.take()

		var body io.Reader
		if tc.in != nil {
			raw, err := json.Marshal(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			body = bytes.NewReader(raw)
		}
		req, err := http.NewRequest(tc.method, hs.URL+tc.path, body)
		if err != nil {
			t.Fatal(err)
		}
		if tc.in != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := hs.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		want := rec.take()

		if got.Method == "" || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s %s: the backend saw\n  %+v from the client,\n  %+v from http.Client", tc.method, tc.path, got, want)
		}
	}
}

// TestOddIDsRoundTrip: tenant ids and task names holding what a URL gives a
// meaning to — '?', '#', '%', '/' — or a space or a non-ASCII letter name
// exactly that tenant and task through every call of its life. Before each
// id was escaped as a path segment, "a?b" addressed tenant "a", "50%" did not
// parse, and "a%2Fb" addressed "a/b".
func TestOddIDsRoundTrip(t *testing.T) {
	srv := server.New()
	defer srv.Shutdown()
	hs := hoptest.NewServer(srv.Handler())
	defer hs.Close()
	c := client.New(hs.URL, nil)
	ctx := context.Background()

	ids := []string{"a?b", "a#b", "50%", "a%2Fb", "a/b", "a b", "é", "plain-id_1.2"}
	for _, id := range ids {
		if _, err := c.CreateTenant(ctx, id, 1, ""); err != nil {
			t.Fatalf("create %q: %v", id, err)
		}
	}
	for _, id := range ids {
		info, err := c.Tenant(ctx, id)
		if err != nil || info.ID != id {
			t.Errorf("get %q: %+v, %v", id, info, err)
			continue
		}
		task := id + "/task"
		if resp, err := c.RegisterTask(ctx, id, task, model.W(1, 2)); err != nil || !resp.Admitted {
			t.Errorf("register %q on %q: %+v, %v", task, id, resp, err)
			continue
		}
		if _, err := c.SubmitJob(ctx, id, task, ""); err != nil {
			t.Errorf("submit to %q on %q: %v", task, id, err)
		}
		if info, err := c.Tenant(ctx, id); err != nil || info.Pending != 1 || info.Tasks != 1 {
			t.Errorf("%q after one submit: %+v, %v; want 1 task, 1 pending", id, info, err)
		}
		if adv, err := c.Drain(ctx, id); err != nil || adv.Dispatched != 1 {
			t.Errorf("drain %q: %+v, %v; want 1 dispatch", id, adv, err)
		}
		if err := c.UnregisterTask(ctx, id, task); err != nil {
			t.Errorf("unregister %q on %q: %v", task, id, err)
		}
		if info, err := c.Tenant(ctx, id); err != nil || info.Tasks != 0 {
			t.Errorf("%q after unregistering its task: %+v, %v", id, info, err)
		}
	}
	for _, id := range ids {
		if err := c.DeleteTenant(ctx, id); err != nil {
			t.Errorf("delete %q: %v", id, err)
		}
		if _, err := c.Tenant(ctx, id); err == nil {
			t.Errorf("%q still there after its delete", id)
		}
	}
	if left, err := c.Tenants(ctx); err != nil || len(left) != 0 {
		t.Errorf("tenants left: %+v, %v", left, err)
	}
}

// TestClientsSharePool: Clients of one base share one pool, as they shared
// http.DefaultTransport's, so 16 concurrent callers spread over several
// Clients — a WithRetry view among them — need no more than 16 connections
// across rounds, and a Client made for one call and dropped leaves none
// behind.
func TestClientsSharePool(t *testing.T) {
	var accepted atomic.Int64
	var gate sync.WaitGroup // every caller of a round is in flight before any is answered
	hs := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gate.Done()
		gate.Wait()
		io.WriteString(w, `{"status":"ok"}`+"\n")
	}))
	hs.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			accepted.Add(1)
		}
	}
	hs.Start()
	defer hs.Close()

	plain := client.New(hs.URL, nil)
	clients := []*client.Client{plain, plain.WithRetry(client.RetryPolicy{MaxAttempts: 2}), client.New(hs.URL+"/", nil), client.New(hs.URL, nil)}
	const callers = 16
	for round := 0; round < 3; round++ {
		gate.Add(callers)
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(c *client.Client) {
				defer wg.Done()
				if err := c.Health(context.Background()); err != nil {
					t.Error(err)
				}
			}(clients[i%len(clients)])
		}
		wg.Wait()
	}
	if n := accepted.Load(); n > callers {
		t.Errorf("%d connections for 3 rounds of %d concurrent callers over %d Clients", n, callers, len(clients))
	}

	before := accepted.Load()
	for i := 0; i < 50; i++ {
		gate.Add(1)
		if err := client.New(hs.URL, nil).Health(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if n := accepted.Load() - before; n != 0 {
		t.Errorf("50 Clients made for one call each opened %d connections, want 0 beside the pool's", n)
	}
}

// TestBaseMustBeHostPort: a base pfaird could not be serving — TLS, a path
// prefix, no port — fails every call with the refusal, and nothing is sent.
func TestBaseMustBeHostPort(t *testing.T) {
	for _, base := range []string{"https://127.0.0.1:8080", "http://127.0.0.1:8080/prefix", "http://localhost", "localhost:8080"} {
		c := client.New(base, nil)
		if err := c.Health(context.Background()); err == nil || !strings.Contains(err.Error(), "want http://host:port") {
			t.Errorf("client.New(%q).Health: %v, want the http://host:port refusal", base, err)
		}
		if _, err := c.StreamDispatches(context.Background(), "t", 0, false); err == nil {
			t.Errorf("client.New(%q).StreamDispatches sent a request", base)
		}
	}
}

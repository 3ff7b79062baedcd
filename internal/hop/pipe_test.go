package hop_test

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"

	"desyncpfair/internal/hop"
	"desyncpfair/internal/server"
)

// pipeListener hands the server one end of a net.Pipe per dial: a transport
// with no socket, no port and no kernel buffer.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial(ctx context.Context, _ string) (net.Conn, error) {
	client, srv := net.Pipe()
	select {
	case l.conns <- srv:
		return client, nil
	case <-l.closed:
		return nil, net.ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// TestPfairdOverPipe runs pfaird's handler behind a Server on an in-memory
// listener and drives it with an Upstream dialing through its seam: a tenant's
// life — create, register, keyed submit and its dedupe, advance, replay of
// its dispatches, /metrics — with no socket anywhere, every request on one
// pooled connection.
func TestPfairdOverPipe(t *testing.T) {
	srv := server.New()
	defer srv.Shutdown()
	ln := newPipeListener()
	hs := &hop.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	up, err := hop.New("http://pfaird.test:80")
	if err != nil {
		t.Fatal(err)
	}
	hop.DialWith(up, ln.dial)
	defer up.CloseIdle()

	call := func(method, target, body string, want int) string {
		t.Helper()
		resp, err := up.RoundTrip(context.Background(), method, target, "application/json", []byte(body))
		if err != nil {
			t.Fatalf("%s %s: %v", method, target, err)
		}
		defer resp.Body.Close()
		reply, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != want {
			t.Fatalf("%s %s: %d %s (%v), want %d", method, target, resp.StatusCode, reply, err, want)
		}
		return string(reply)
	}
	call("POST", "/v1/tenants", `{"id":"acme","m":1}`, http.StatusCreated)
	call("POST", "/v1/tenants/acme/tasks", `{"name":"web","e":1,"p":2}`, http.StatusCreated)
	first := call("POST", "/v1/tenants/acme/jobs", `{"task":"web","key":"k1"}`, http.StatusAccepted)
	if again := call("POST", "/v1/tenants/acme/jobs", `{"task":"web","key":"k1"}`, http.StatusAccepted); again != first {
		t.Errorf("a resent keyed submit answered %q, the first %q", again, first)
	}
	var adv server.AdvanceResponse
	if err := json.Unmarshal([]byte(call("POST", "/v1/tenants/acme/advance", `{"by":"2"}`, http.StatusOK)), &adv); err != nil || adv.Dispatched != 1 {
		t.Errorf("advance: %+v, %v; want one dispatch", adv, err)
	}
	if frames := call("GET", "/v1/tenants/acme/dispatches?from=0&follow=false", "", http.StatusOK); strings.Count(frames, "\n") != 1 {
		t.Errorf("replay of the dispatch log: %q, want one frame", frames)
	}
	if m := call("GET", "/metrics", "", http.StatusOK); !strings.Contains(m, "pfaird_") {
		t.Errorf("/metrics: %.200q", m)
	}
	if up.Dials.Load() != 1 {
		t.Errorf("%d dials for one caller's requests, want 1", up.Dials.Load())
	}
}

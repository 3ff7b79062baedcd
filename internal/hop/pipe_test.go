package hop_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"desyncpfair/internal/hop"
	"desyncpfair/internal/hop/hoptest"
	"desyncpfair/internal/server"
)

// TestPfairdOverPipe runs pfaird's handler behind a Server on an in-memory
// listener and drives it with an Upstream dialing through its seam: a tenant's
// life — create, register, keyed submit and its dedupe, advance, replay of
// its dispatches, /metrics — with no socket anywhere, every request on one
// pooled connection.
func TestPfairdOverPipe(t *testing.T) {
	srv := server.New()
	defer srv.Shutdown()
	var pipes hoptest.Pipes
	hs := &hop.Server{Handler: srv.Handler()}
	go hs.Serve(pipes.Listen("pfaird.test:80"))
	defer hs.Close()
	up, err := hop.New("http://pfaird.test:80")
	if err != nil {
		t.Fatal(err)
	}
	hop.DialWith(up, pipes.Dial)
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

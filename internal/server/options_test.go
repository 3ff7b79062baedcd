package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"desyncpfair/internal/obs"
)

// Open without a DataDir is the in-memory server, configured by the same
// Options as a durable one: these tests drive one through its handler.

func openInMemory(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if s.wal != nil || s.Recovery() != nil {
		t.Fatal("Open without a DataDir opened a journal")
	}
	return s
}

// serve runs one request through h, failing the test on a status other
// than want, and returns the reply.
func serve(t *testing.T, h http.Handler, method, path, body string, want int) *httptest.ResponseRecorder {
	t.Helper()
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(method, path, strings.NewReader(body)))
	if rw.Code != want {
		t.Fatalf("%s %s: %d %s, want %d", method, path, rw.Code, rw.Body, want)
	}
	return rw
}

// unitTenant creates tenant r on one processor with one task of weight 1.
func unitTenant(t *testing.T, h http.Handler) {
	t.Helper()
	serve(t, h, "POST", "/v1/tenants", `{"id":"r","m":1}`, http.StatusCreated)
	serve(t, h, "POST", "/v1/tenants/r/tasks", `{"name":"w","e":1,"p":1}`, http.StatusCreated)
}

// TestOpenInMemoryHonoursSubmitRing: with its loop held, the tenant queues
// SubmitRing submits and answers the next one 429; released, it applies
// the queued ones.
func TestOpenInMemoryHonoursSubmitRing(t *testing.T) {
	const ring = 2
	s := openInMemory(t, Options{SubmitRing: ring})
	h := s.Handler()
	unitTenant(t, h)
	tn := s.tenant("r")

	entered, gate := make(chan struct{}), make(chan struct{})
	go tn.ctlExec(&command{kind: cmdCtl, fn: func() {
		close(entered)
		<-gate
	}})
	<-entered
	queued := make(chan int, ring)
	for i := 0; i < ring; i++ {
		go func() {
			rw := httptest.NewRecorder()
			h.ServeHTTP(rw, httptest.NewRequest("POST", "/v1/tenants/r/jobs", strings.NewReader(`{"task":"w"}`)))
			queued <- rw.Code
		}()
	}
	for len(tn.ring) < ring {
		runtime.Gosched()
	}
	if rw := serve(t, h, "POST", "/v1/tenants/r/jobs", `{"task":"w"}`, http.StatusTooManyRequests); rw.Header().Get("Retry-After") != "0" {
		t.Fatalf("429 without Retry-After: 0: %v", rw.Header())
	}
	close(gate)
	for i := 0; i < ring; i++ {
		if code := <-queued; code != http.StatusAccepted {
			t.Fatalf("queued submit answered %d, want 202", code)
		}
	}
}

// TestOpenInMemoryHonoursTraceBuffer: the trace ring keeps the last
// TraceBuffer events.
func TestOpenInMemoryHonoursTraceBuffer(t *testing.T) {
	h := openInMemory(t, Options{TraceBuffer: 3}).Handler()
	unitTenant(t, h)
	for i := 0; i < 4; i++ {
		serve(t, h, "POST", "/v1/tenants/r/jobs", `{"task":"w"}`, http.StatusAccepted)
	}
	serve(t, h, "POST", "/v1/tenants/r/advance", `{"by":"4"}`, http.StatusOK)
	body := serve(t, h, "GET", "/v1/tenants/r/trace?follow=false", "", http.StatusOK).Body.Bytes()
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("trace holds %d events, want the last 3:\n%s", len(lines), body)
	}
	var evs [3]obs.Event
	for i, ln := range lines {
		if err := json.Unmarshal(ln, &evs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if last := evs[2]; last.Op != "advance" || last.Stage != "apply" || evs[0].Seq != last.Seq-2 || evs[0].Seq == 0 {
		t.Fatalf("trace holds events %d..%d, want the last 3, ending with the advance's apply:\n%s", evs[0].Seq, last.Seq, body)
	}
}

// TestOpenInMemoryHonoursClock: on a fake clock that moves a fixed step
// per read, every submit→ack latency of an in-memory server is the same
// whole number of steps.
func TestOpenInMemoryHonoursClock(t *testing.T) {
	h := openInMemory(t, Options{Clock: obs.NewFake(time.Unix(1_700_000_000, 0), time.Millisecond)}).Handler()
	unitTenant(t, h)
	for i := 0; i < 2; i++ {
		serve(t, h, "POST", "/v1/tenants/r/jobs", `{"task":"w"}`, http.StatusAccepted)
	}
	ex, err := obs.ParseExposition(serve(t, h, "GET", "/metrics", "", http.StatusOK).Body.String())
	if err != nil {
		t.Fatal(err)
	}
	ack, err := ex.Histogram("pfaird_submit_ack_seconds", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Each ack is read 3 steps after the handler's start: the submit's two
	// trace events, submit and apply, read the clock in between.
	if ack.Count != 2 || ack.Sum != 2*0.003 {
		t.Fatalf("submit→ack: %d observations summing to %gs, want 2 of exactly 3ms", ack.Count, ack.Sum)
	}
}

// TestOpenRefusesFollowerWithoutDataDir: a follower's journal is its
// promotion state, so there is no in-memory follower.
func TestOpenRefusesFollowerWithoutDataDir(t *testing.T) {
	if s, err := Open(Options{Follower: true}); err == nil {
		s.Close()
		t.Fatal("Open(Options{Follower: true}) opened an in-memory follower")
	}
}

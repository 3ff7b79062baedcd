package server

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// TestOpenInMemoryHonoursSubmitRing: with its loop held, an in-memory
// server's tenant queues defaultSubmitRing submits and answers the next one
// 429 with Retry-After: 0; released, it applies the queued ones.
func TestOpenInMemoryHonoursSubmitRing(t *testing.T) {
	s := openInMemory(t, Options{})
	h := s.Handler()
	unitTenant(t, h)
	tn := s.tenant("r")

	entered, gate := make(chan struct{}), make(chan struct{})
	go tn.onLoop(func() {
		close(entered)
		<-gate
	})
	<-entered
	queued := make(chan int, defaultSubmitRing)
	for i := 0; i < defaultSubmitRing; i++ {
		go func() {
			rw := httptest.NewRecorder()
			h.ServeHTTP(rw, httptest.NewRequest("POST", "/v1/tenants/r/jobs", strings.NewReader(`{"task":"w"}`)))
			queued <- rw.Code
		}()
	}
	for tn.Queued() < defaultSubmitRing {
		runtime.Gosched()
	}
	if rw := serve(t, h, "POST", "/v1/tenants/r/jobs", `{"task":"w"}`, http.StatusTooManyRequests); rw.Header().Get("Retry-After") != "0" {
		t.Fatalf("429 without Retry-After: 0: %v", rw.Header())
	}
	close(gate)
	for i := 0; i < defaultSubmitRing; i++ {
		if code := <-queued; code != http.StatusAccepted {
			t.Fatalf("queued submit answered %d, want 202", code)
		}
	}
	if info := tn.Info(); info.Pending != defaultSubmitRing {
		t.Fatalf("%d subtasks pending after the queued submits, want %d", info.Pending, defaultSubmitRing)
	}
}

// TestTraceRetainsDefaultTraceCap: a tenant's trace ring keeps its last
// defaultTraceCap events.
func TestTraceRetainsDefaultTraceCap(t *testing.T) {
	h := openInMemory(t, Options{}).Handler()
	unitTenant(t, h)
	// A submit traces two events (submit, apply), as does the advance.
	for i := 0; i < defaultTraceCap/2; i++ {
		serve(t, h, "POST", "/v1/tenants/r/jobs", `{"task":"w"}`, http.StatusAccepted)
	}
	serve(t, h, "POST", "/v1/tenants/r/advance", `{"by":"1"}`, http.StatusOK)
	body := serve(t, h, "GET", "/v1/tenants/r/trace?follow=false", "", http.StatusOK).Body.Bytes()
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) != defaultTraceCap {
		t.Fatalf("trace holds %d events, want the last %d", len(lines), defaultTraceCap)
	}
	var first, last obs.Event
	if err := json.Unmarshal(lines[0], &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatal(err)
	}
	if last.Op != "advance" || last.Stage != "apply" || first.Seq != last.Seq-(defaultTraceCap-1) || first.Seq == 0 {
		t.Fatalf("trace holds events %d..%d, want the last %d, ending with the advance's apply", first.Seq, last.Seq, defaultTraceCap)
	}
}

// TestIdleTenantHeap pins what a tenant holds before it does anything: a
// few KiB of live heap, and no goroutine — so no stack. Its trace ring
// allocates records as events land, so an idle tenant pays for none of its
// defaultTraceCap of retention, and its command queue is drained by the
// callers that fill it.
func TestIdleTenantHeap(t *testing.T) {
	const n = 10_000
	tenants := make([]*Tenant, 0, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	goroutines := runtime.NumGoroutine()
	for i := 0; i < n; i++ {
		tn, err := newTenant(fmt.Sprintf("idle-%d", i), 1, "PD2", nil, false)
		if err != nil {
			t.Fatal(err)
		}
		tenants = append(tenants, tn)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	// A goroutine another test left behind may still be on its way out, or
	// a timer of one may fire: ask a few times before calling it growth.
	grown := runtime.NumGoroutine() - goroutines
	for i := 0; i < 20 && grown > 0; i++ {
		time.Sleep(10 * time.Millisecond)
		grown = runtime.NumGoroutine() - goroutines
	}
	heap := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	stack := (int64(after.StackInuse) - int64(before.StackInuse)) / n
	for _, tn := range tenants {
		tn.Close()
	}
	if grown > 0 {
		t.Errorf("%d idle tenants started %d goroutines, want 0", n, grown)
	}
	if stack > 256 {
		t.Errorf("an idle tenant holds %d B of stack, want ≤ 256", stack)
	}
	if heap > 4<<10 {
		t.Errorf("an idle tenant holds %d B of live heap, want ≤ %d", heap, 4<<10)
	}
	t.Logf("per idle tenant: %d B of live heap, %d B of stack; %d goroutines for %d tenants", heap, stack, grown, n)
}

// TestFullTraceRingBytes: a tenant's full trace ring retains 64 bytes per
// event, plus a string table of the few ops, stages and task names its
// events name.
func TestFullTraceRingBytes(t *testing.T) {
	s := openInMemory(t, Options{})
	h := s.Handler()
	unitTenant(t, h)
	for i := 0; i < defaultTraceCap; i++ {
		serve(t, h, "POST", "/v1/tenants/r/jobs", `{"task":"w"}`, http.StatusAccepted)
	}
	ring := s.tenant("r").traceRing()
	if ring.Next() <= defaultTraceCap {
		t.Fatalf("%d events traced, want more than the ring's %d", ring.Next(), defaultTraceCap)
	}
	if b, want := ring.Bytes(), 64*defaultTraceCap+1024; b > want {
		t.Fatalf("a full trace ring holds %d bytes, want ≤ %d", b, want)
	}
	t.Logf("a full trace ring of %d events holds %d bytes", defaultTraceCap, ring.Bytes())
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

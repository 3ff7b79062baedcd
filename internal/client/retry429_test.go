package client_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"desyncpfair/internal/client"
	"desyncpfair/internal/hop/hoptest"
	"desyncpfair/internal/model"
	"desyncpfair/internal/server"
)

// throttleHandler answers the first `rejects` requests with 429 (the
// submit-ring backpressure reply) and delegates afterwards.
type throttleHandler struct {
	rejects int64
	seen    atomic.Int64
	next    http.Handler
}

func (h *throttleHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.seen.Add(1) <= h.rejects {
		w.Header().Set("Retry-After", "0")
		http.Error(w, `{"error":"submit ring full"}`, http.StatusTooManyRequests)
		return
	}
	h.next.ServeHTTP(w, r)
}

// TestBackpressure429RetriedOnMutations pins the backpressure class: a
// 429 refuses the request *before* any state change, so even a plain
// (unkeyed) mutation is resent instead of surfacing the error — the fix
// for pfairload hot-looping on ring-full replies.
func TestBackpressure429RetriedOnMutations(t *testing.T) {
	srv := server.New()
	defer srv.Shutdown()
	th := &throttleHandler{rejects: 2, next: srv.Handler()}
	hs := hoptest.NewServer(th)
	defer hs.Close()

	var retries atomic.Int64
	c := client.New(hs.URL, nil).WithRetry(client.RetryPolicy{
		MaxAttempts: 2, // two 429s would exhaust this if they counted
		OnRetry:     func(error) { retries.Add(1) },
	})
	if _, err := c.CreateTenant(context.Background(), "t", 1, ""); err != nil {
		t.Fatalf("POST through 2 429s: %v", err)
	}
	if n := th.seen.Load(); n != 3 {
		t.Fatalf("server saw %d requests, want 2 rejects + 1 success", n)
	}
	if n := retries.Load(); n != 2 {
		t.Fatalf("OnRetry fired %d times, want once per 429", n)
	}
}

// ackDropHandler lets the request reach the backend but replaces the
// first `drops` replies with 503 — the ambiguous "applied but unacked"
// failure a retried submit must tolerate.
type ackDropHandler struct {
	drops atomic.Int64
	next  http.Handler
}

func (h *ackDropHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && h.drops.Add(-1) >= 0 {
		h.next.ServeHTTP(httptest.NewRecorder(), r) // applied; ack lost
		http.Error(w, "ack lost", http.StatusServiceUnavailable)
		return
	}
	h.next.ServeHTTP(w, r)
}

// TestKeyedSubmitResendIsDeduped pins the idempotency-key contract end
// to end: the first submit is applied but its ack is lost; the retried
// resend must return the original response instead of double-applying.
func TestKeyedSubmitResendIsDeduped(t *testing.T) {
	srv := server.New()
	defer srv.Shutdown()
	h := &ackDropHandler{next: srv.Handler()}
	hs := hoptest.NewServer(h)
	defer hs.Close()

	c := client.New(hs.URL, nil).WithRetry(client.RetryPolicy{MaxAttempts: 3})
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, "t", 1, ""); err != nil {
		t.Fatalf("CreateTenant: %v", err)
	}
	if _, err := c.RegisterTask(ctx, "t", "x", model.Weight{E: 1, P: 2}); err != nil {
		t.Fatalf("RegisterTask: %v", err)
	}

	h.drops.Store(1)
	resp, err := c.SubmitJobKeyed(ctx, "t", server.SubmitJobRequest{Task: "x", Key: "job-1"})
	if err != nil {
		t.Fatalf("keyed submit through a dropped ack: %v", err)
	}
	if resp.Pending != 1 {
		t.Fatalf("resp.Pending = %d, want 1 (the deduped original)", resp.Pending)
	}
	info, err := c.Tenant(ctx, "t")
	if err != nil {
		t.Fatalf("Tenant: %v", err)
	}
	if info.Pending != 1 {
		t.Fatalf("tenant has %d pending subtasks after a resent keyed submit, want 1 (no double-apply)", info.Pending)
	}
}

// TestUnkeyedSubmitNotRetriedOnAmbiguousFailure pins the other side of
// the contract: without a key the resend could double-apply, so the 503
// must surface.
func TestUnkeyedSubmitNotRetriedOnAmbiguousFailure(t *testing.T) {
	srv := server.New()
	defer srv.Shutdown()
	h := &ackDropHandler{next: srv.Handler()}
	hs := hoptest.NewServer(h)
	defer hs.Close()

	c := client.New(hs.URL, nil).WithRetry(client.RetryPolicy{MaxAttempts: 3})
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, "t", 1, ""); err != nil {
		t.Fatalf("CreateTenant: %v", err)
	}
	if _, err := c.RegisterTask(ctx, "t", "x", model.Weight{E: 1, P: 2}); err != nil {
		t.Fatalf("RegisterTask: %v", err)
	}

	h.drops.Store(1)
	if _, err := c.SubmitJob(ctx, "t", "x", ""); err == nil {
		t.Fatal("unkeyed submit was retried through an ambiguous failure")
	}
	info, err := c.Tenant(ctx, "t")
	if err != nil {
		t.Fatalf("Tenant: %v", err)
	}
	if info.Pending != 1 {
		t.Fatalf("tenant has %d pending subtasks, want 1 (applied once, ack lost)", info.Pending)
	}
}

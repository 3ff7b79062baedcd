package client_test

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"desyncpfair/internal/client"
	"desyncpfair/internal/hop/hoptest"
	"desyncpfair/internal/model"
	"desyncpfair/internal/server"
)

// flakyHandler fails the first `failures` requests with 503 and serves the
// real server afterwards — the classic restart window a retrying client
// must ride out.
type flakyHandler struct {
	failures int64
	seen     atomic.Int64
	next     http.Handler
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.seen.Add(1) <= f.failures {
		http.Error(w, "restarting", http.StatusServiceUnavailable)
		return
	}
	f.next.ServeHTTP(w, r)
}

func TestRetryRidesOut503s(t *testing.T) {
	srv := server.New()
	defer srv.Shutdown()
	fh := &flakyHandler{failures: 3, next: srv.Handler()}
	hs := hoptest.NewServer(fh)
	defer hs.Close()

	c := client.New(hs.URL, nil).WithRetry(client.RetryPolicy{MaxAttempts: 5})
	if _, err := c.Tenants(context.Background()); err != nil {
		t.Fatalf("GET through 3 failures: %v", err)
	}
	if n := fh.seen.Load(); n != 4 {
		t.Fatalf("server saw %d requests, want 3 failures + 1 success", n)
	}
}

func TestMutationsAreNeverRetried(t *testing.T) {
	srv := server.New()
	defer srv.Shutdown()
	fh := &flakyHandler{failures: 1, next: srv.Handler()}
	hs := hoptest.NewServer(fh)
	defer hs.Close()

	c := client.New(hs.URL, nil).WithRetry(client.RetryPolicy{MaxAttempts: 5})
	// One 503 in the way: the POST must surface it instead of resending —
	// a replayed mutation could double-apply a journaled command.
	_, err := c.CreateTenant(context.Background(), "t", 1, "")
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("flaky POST returned %v, want the 503 passed through", err)
	}
	if n := fh.seen.Load(); n != 1 {
		t.Fatalf("server saw %d requests for one POST, want exactly 1", n)
	}
}

func TestRetryGivesUpAfterMaxAttempts(t *testing.T) {
	var seen atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer hs.Close()

	c := client.New(hs.URL, nil).WithRetry(client.RetryPolicy{MaxAttempts: 3})
	_, err := c.Tenants(context.Background())
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want the final 503", err)
	}
	if n := seen.Load(); n != 3 {
		t.Fatalf("server saw %d attempts, want MaxAttempts = 3", n)
	}
}

// TestRetryHonorsContextDeadline: a deadline that passes mid-backoff ends
// the call there. The server asks for an hour between tries, and the test
// passes the deadline once the first retry is due, so the call can only
// return through the backoff's watch on its context: after exactly one
// attempt, with the deadline's error.
func TestRetryHonorsContextDeadline(t *testing.T) {
	var seen atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen.Add(1)
		w.Header().Set("Retry-After", "3600")
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer hs.Close()

	retrying := make(chan struct{}, 1)
	c := client.New(hs.URL, nil).WithRetry(client.RetryPolicy{
		MaxAttempts: 1000,
		OnRetry:     func(error) { retrying <- struct{}{} },
	})
	ctx := &deadline{Context: context.Background(), passed: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		_, err := c.Tenants(ctx)
		done <- err
	}()
	<-retrying
	close(ctx.passed)
	if err := <-done; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded from mid-backoff", err)
	}
	if n := seen.Load(); n != 1 {
		t.Fatalf("server saw %d attempts, want 1: the deadline must end the first backoff sleep", n)
	}
}

// deadline is a context whose deadline the test passes on cue: Done closes
// and Err says DeadlineExceeded then, as a context.WithTimeout's would.
type deadline struct {
	context.Context
	passed chan struct{}
}

func (d *deadline) Done() <-chan struct{} { return d.passed }

func (d *deadline) Err() error {
	select {
	case <-d.passed:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// closingListener closes the first `drops` connections it accepts before
// reading a byte of them: the connection refused, reset or hung up on that a
// client meets while a server restarts.
type closingListener struct {
	net.Listener
	drops    atomic.Int64
	accepted atomic.Int64
}

func (l *closingListener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		l.accepted.Add(1)
		if l.drops.Add(-1) < 0 {
			return c, nil
		}
		c.Close()
	}
}

func TestRetryRidesOutTransportErrors(t *testing.T) {
	srv := server.New()
	defer srv.Shutdown()
	hs := hoptest.NewUnstartedServer(srv.Handler())
	ln := &closingListener{Listener: hs.Listener}
	ln.drops.Store(2)
	hs.Listener = ln
	hs.Start()
	defer hs.Close()

	c := client.New(hs.URL, nil).WithRetry(client.RetryPolicy{MaxAttempts: 4})
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("GET through 2 transport failures: %v", err)
	}
	if n := ln.accepted.Load(); n != 3 {
		t.Fatalf("the listener accepted %d connections, want 2 closed + 1 served", n)
	}
}

// dropHandler reads the first `drops` job submits and closes their
// connection without a reply: the backend that took the request and died.
type dropHandler struct {
	drops, submits atomic.Int64
	next           http.Handler
}

func (h *dropHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/jobs") {
		h.submits.Add(1)
		if h.drops.Add(-1) >= 0 {
			io.Copy(io.Discard, r.Body)
			if c, _, err := w.(http.Hijacker).Hijack(); err == nil {
				c.Close()
			}
			return
		}
	}
	h.next.ServeHTTP(w, r)
}

// TestDroppedReplyResentOnlyWhenKeyed is the router's resend rule, now the
// client's too: nothing the connection pool cannot prove unsent goes out
// again on its own, so a submit the backend read and never answered costs an
// un-keyed submit an error after exactly one hit, and a keyed one is resent
// by the retry policy and deduped by the server.
func TestDroppedReplyResentOnlyWhenKeyed(t *testing.T) {
	srv := server.New()
	defer srv.Shutdown()
	h := &dropHandler{next: srv.Handler()}
	hs := httptest.NewServer(h)
	defer hs.Close()

	c := client.New(hs.URL, nil).WithRetry(client.RetryPolicy{MaxAttempts: 3})
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, "t", 1, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterTask(ctx, "t", "x", model.W(1, 2)); err != nil {
		t.Fatal(err)
	}

	h.drops.Store(1)
	if _, err := c.SubmitJob(ctx, "t", "x", ""); err == nil || h.submits.Load() != 1 {
		t.Errorf("un-keyed submit the backend dropped: %v after %d hits; want an error after exactly 1", err, h.submits.Load())
	}
	h.drops.Store(1)
	h.submits.Store(0)
	resp, err := c.SubmitJobKeyed(ctx, "t", server.SubmitJobRequest{Task: "x", Key: "k1"})
	if err != nil || h.submits.Load() != 2 {
		t.Errorf("keyed submit the backend dropped once: %+v, %v after %d hits; want the resend's ack, 2 hits", resp, err, h.submits.Load())
	}
	if info, err := c.Tenant(ctx, "t"); err != nil || info.Pending != 1 {
		t.Errorf("tenant after one dropped submit of each kind: %+v, %v; want 1 pending (the keyed one)", info, err)
	}
}

package server_test

// Tests for the encode-once egress plane: byte-identity of every NDJSON
// stream with an independent re-encode (the frames a subscriber receives
// must be exactly what a per-subscriber json.Encoder would have written),
// fan-out correctness under churn with -race, and the slow-consumer
// policy — lag-bound eviction with an in-band 410 control line, and the
// write-stall deadline that severs a fully wedged reader.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"desyncpfair/internal/client"
	"desyncpfair/internal/model"
	"desyncpfair/internal/obs"
	"desyncpfair/internal/server"
)

// pumpDispatches drives `batches` rounds of (batch submit to every task,
// advance) so the tenant's dispatch log grows quickly: unit-weight tasks
// release one subtask per job, so each round yields tasks×per decisions.
func pumpDispatches(t testing.TB, c *client.Client, tenant string, tasks, batches, per int) {
	t.Helper()
	ctx := context.Background()
	for b := 0; b < batches; b++ {
		for k := 0; k < tasks; k++ {
			jobs := make([]server.SubmitJobRequest, per)
			for i := range jobs {
				jobs[i] = server.SubmitJobRequest{Task: fmt.Sprintf("t%d", k)}
			}
			if _, err := c.SubmitJobs(ctx, tenant, jobs); err != nil {
				t.Fatalf("batch submit: %v", err)
			}
		}
		if _, err := c.AdvanceBy(ctx, tenant, fmt.Sprint(per)); err != nil {
			t.Fatalf("advance: %v", err)
		}
	}
}

// unitTenant creates a tenant with `tasks` unit-weight tasks (E=1, P=1):
// the densest possible dispatch stream, m decisions per quantum.
func unitTenant(t testing.TB, c *client.Client, id string, tasks int) {
	t.Helper()
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, id, tasks, ""); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < tasks; k++ {
		if _, err := c.RegisterTask(ctx, id, fmt.Sprintf("t%d", k), model.W(1, 1)); err != nil {
			t.Fatal(err)
		}
	}
}

// ndjsonLines fetches url and splits the body into its non-empty lines,
// each still carrying the trailing newline the wire had.
func ndjsonLines(t *testing.T, url string) [][]byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	for _, ln := range bytes.SplitAfter(body, []byte("\n")) {
		if len(bytes.TrimSpace(ln)) > 0 {
			lines = append(lines, ln)
		}
	}
	return lines
}

// TestStreamByteIdentity20Seeds sweeps 20 seeded random workloads and
// asserts every egress stream is byte-identical to an independent
// re-encode of its records: decode each NDJSON line into the wire type
// and marshal it back — the bytes must match exactly, which is precisely
// what the per-subscriber json.Encoder this PR removed used to produce.
func TestStreamByteIdentity20Seeds(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			srv, err := server.Open(server.Options{DataDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(srv.Handler())
			t.Cleanup(hs.Close)
			t.Cleanup(func() { srv.Close() })
			c := client.New(hs.URL, hs.Client())
			ctx := context.Background()

			tasks := 1 + rng.Intn(4)
			if _, err := c.CreateTenant(ctx, "acme", 2, ""); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < tasks; k++ {
				if _, err := c.RegisterTask(ctx, "acme", fmt.Sprintf("t%d", k), model.W(1, int64(tasks))); err != nil {
					t.Fatal(err)
				}
			}
			for i, n := 0, 5+rng.Intn(20); i < n; i++ {
				task := fmt.Sprintf("t%d", rng.Intn(tasks))
				if _, err := c.SubmitJob(ctx, "acme", task, ""); err != nil {
					t.Fatal(err)
				}
				if rng.Intn(3) == 0 {
					if _, err := c.AdvanceBy(ctx, "acme", fmt.Sprint(1+rng.Intn(4))); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := c.Drain(ctx, "acme"); err != nil {
				t.Fatal(err)
			}

			// Dispatch stream: frame bytes == Marshal(event) + '\n'.
			dispatches := ndjsonLines(t, hs.URL+"/v1/tenants/acme/dispatches?from=0&follow=false")
			if len(dispatches) == 0 {
				t.Fatal("no dispatch lines")
			}
			for i, ln := range dispatches {
				var ev server.DispatchEvent
				if err := json.Unmarshal(ln, &ev); err != nil {
					t.Fatalf("dispatch line %d: %v", i, err)
				}
				want, _ := json.Marshal(ev)
				if !bytes.Equal(ln, append(want, '\n')) {
					t.Fatalf("dispatch line %d not byte-identical:\n got %swant %s\n", i, ln, want)
				}
			}

			// Trace stream: same contract for the ring's memoized frames.
			traces := ndjsonLines(t, hs.URL+"/v1/tenants/acme/trace?from=0&follow=false")
			if len(traces) == 0 {
				t.Fatal("no trace lines")
			}
			for i, ln := range traces {
				var ev obs.Event
				if err := json.Unmarshal(ln, &ev); err != nil {
					t.Fatalf("trace line %d: %v", i, err)
				}
				want, _ := json.Marshal(ev)
				if !bytes.Equal(ln, append(want, '\n')) {
					t.Fatalf("trace line %d not byte-identical:\n got %swant %s\n", i, ln, want)
				}
			}

			// Replication stream: each raw-shipped line must re-verify its
			// CRC and round-trip through the ReplFrame encoder unchanged.
			repl := ndjsonLines(t, hs.URL+"/v1/replication/log?from=1&follow=false")
			if len(repl) == 0 {
				t.Fatal("no replication lines")
			}
			for i, ln := range repl {
				var f server.ReplFrame
				if err := json.Unmarshal(ln, &f); err != nil {
					t.Fatalf("repl line %d: %v", i, err)
				}
				if _, err := f.Verify(); err != nil {
					t.Fatalf("repl line %d: %v", i, err)
				}
				want, _ := json.Marshal(f)
				if !bytes.Equal(ln, append(want, '\n')) {
					t.Fatalf("repl line %d not byte-identical:\n got %swant %s\n", i, ln, want)
				}
			}

			streamAcrossCompactions(t, seed)
		})
	}
}

// gatedWriter is the ResponseWriter of a stream reader that has connected
// but is not reading yet: body writes wait for open, then accumulate, and
// full closes once want bytes (set before open) have arrived.
type gatedWriter struct {
	open, full chan struct{}
	want       int
	mu         sync.Mutex
	body       bytes.Buffer
}

func (w *gatedWriter) Header() http.Header { return http.Header{} }
func (w *gatedWriter) WriteHeader(int)     {}
func (w *gatedWriter) Flush()              {}
func (w *gatedWriter) Write(p []byte) (int, error) {
	<-w.open
	w.mu.Lock()
	defer w.mu.Unlock()
	before := w.body.Len()
	w.body.Write(p)
	if before < w.want && w.body.Len() >= w.want {
		close(w.full)
	}
	return len(p), nil
}

// streamAcrossCompactions is the byte-identity sweep's durable half. A
// durable tenant compacting every 16 records seals its history into files
// and drops it from memory (TestMain: 8-event segments) while it is fed a
// seeded script; an in-memory tenant fed the same script is the reference.
// Three readers must get the reference's ?from=0 bytes exactly: a replay
// from 0 after the resident floor has moved, one starting inside a sealed
// segment, and a follower that opened before the first seal and whose
// first write is held up until the script has ended — so it reads what it
// missed across every seal made meanwhile.
func streamAcrossCompactions(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	durable, err := server.Open(server.Options{DataDir: t.TempDir(), SnapshotEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(durable.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() { durable.Close() })
	ref, refClient := newTestServer(t)
	both := []*client.Client{client.New(hs.URL, hs.Client()), refClient}
	ctx := context.Background()

	tasks := 2 + rng.Intn(3)
	for _, c := range both {
		unitTenant(t, c, "acme", tasks)
	}
	follower := &gatedWriter{open: make(chan struct{}), full: make(chan struct{})}
	followCtx, hangUp := context.WithCancel(ctx)
	hungUp := make(chan struct{})
	go func() {
		defer close(hungUp)
		req := httptest.NewRequest("GET", "/v1/tenants/acme/dispatches?from=0&follow=true", nil)
		durable.Handler().ServeHTTP(follower, req.WithContext(followCtx))
	}()
	for round, n := 0, 4+rng.Intn(4); round < n; round++ {
		per := 8 + rng.Intn(16)
		for _, c := range both {
			pumpDispatches(t, c, "acme", tasks, 1, per)
		}
		if rng.Intn(3) == 0 {
			by := fmt.Sprintf("%d/2", 1+rng.Intn(6))
			for _, c := range both {
				if _, err := c.AdvanceBy(ctx, "acme", by); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	want := dispatchBytes(t, ref.Handler(), "acme")
	events := bytes.Count(want, []byte{'\n'})
	if sealed := metricValue(t, durable.Handler(), `pfaird_tenant_history_sealed_events{tenant="acme"}`); sealed == 0 {
		t.Fatal("the durable tenant sealed nothing: the resident floor never moved")
	}
	if got := dispatchBytes(t, durable.Handler(), "acme"); !bytes.Equal(got, want) {
		t.Fatalf("?from=0 across sealed history differs from the in-memory tenant's (%d vs %d bytes)", len(got), len(want))
	}
	got := bytes.Join(ndjsonLines(t, fmt.Sprintf("%s/v1/tenants/acme/dispatches?from=%d&follow=false", hs.URL, events/3)), nil)
	if !bytes.HasSuffix(want, got) || bytes.Count(got, []byte{'\n'}) != events-events/3 {
		t.Fatalf("?from=%d, inside a sealed segment, is not the reference's tail from there", events/3)
	}

	follower.want = len(want)
	close(follower.open)
	select {
	case <-follower.full:
	case <-time.After(20 * time.Second):
		t.Fatal("the follower that opened before the seals never caught up")
	}
	hangUp()
	<-hungUp
	if !bytes.Equal(follower.body.Bytes(), want) {
		t.Fatal("a follower reading across seals got bytes that differ from the in-memory tenant's")
	}
}

// TestFanoutStress runs 1 tenant × 32 follow-mode subscribers against
// concurrent submit churn plus subscribe/unsubscribe churn, under -race.
// Every follower must see the complete dispatch log, in order, with no
// gaps and no duplicates — the shared frame cache may never tear.
func TestFanoutStress(t *testing.T) {
	srv, c := newTestServer(t)
	_ = srv
	unitTenant(t, c, "acme", 4)

	const (
		followers = 32
		rounds    = 60
		perBatch  = 8
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	counts := make([]atomic.Int64, followers)
	errs := make([]error, followers)
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := c.StreamDispatches(ctx, "acme", 0, true)
			if err != nil {
				errs[i] = err
				return
			}
			defer st.Close()
			var next int64
			for {
				ev, err := st.Next()
				if err != nil {
					if ctx.Err() == nil && !errors.Is(err, io.EOF) {
						errs[i] = err
					}
					return
				}
				if ev.Seq != next {
					errs[i] = fmt.Errorf("follower %d: got seq %d, want %d", i, ev.Seq, next)
					return
				}
				next++
				counts[i].Store(next)
			}
		}(i)
	}

	// Subscribe/unsubscribe churn: short-lived replays racing the cache.
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for j := 0; j < 40 && ctx.Err() == nil; j++ {
			st, err := c.StreamDispatches(ctx, "acme", int64(j), false)
			if err != nil {
				continue
			}
			for {
				if _, err := st.Next(); err != nil {
					break
				}
			}
			st.Close()
		}
	}()

	pumpDispatches(t, c, "acme", 4, rounds, perBatch)
	info, err := c.Tenant(context.Background(), "acme")
	if err != nil {
		t.Fatal(err)
	}
	total := info.Dispatches
	if want := int64(4 * rounds * perBatch); total != want {
		t.Fatalf("dispatched %d, want %d", total, want)
	}

	// Every follower must drain the full log; the backlog is finite now.
	deadline := time.Now().Add(15 * time.Second)
	for {
		done := true
		for i := range counts {
			if counts[i].Load() < total && errs[i] == nil {
				done = false
			}
		}
		if done || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	wg.Wait()
	<-churnDone
	for i := range counts {
		if errs[i] != nil {
			t.Errorf("follower %d: %v", i, errs[i])
		}
		if got := counts[i].Load(); got != total {
			t.Errorf("follower %d consumed %d/%d frames", i, got, total)
		}
	}
}

// smallWriteBufListener shrinks each accepted connection's kernel send
// buffer so a few kilobytes of unread frames are enough to exert real
// TCP backpressure on the handler — the slow-consumer tests would
// otherwise need megabytes of traffic to fill default buffers.
type smallWriteBufListener struct{ net.Listener }

func (l smallWriteBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); err == nil && ok {
		tc.SetWriteBuffer(2048)
	}
	return c, err
}

// smallReadBufTransport dials with a tiny kernel receive buffer, the
// client half of the same backpressure setup.
func smallReadBufTransport() *http.Transport {
	return &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
			if tc, ok := c.(*net.TCPConn); err == nil && ok {
				tc.SetReadBuffer(2048)
			}
			return c, err
		},
	}
}

// TestStreamEvictsLaggingSubscriber: a follower that keeps reading, but
// slower than the log grows, must be evicted once it lags past the bound
// — with an in-band 410 control line whose resumeFrom equals exactly the
// number of events it was delivered, so reconnecting there loses nothing.
func TestStreamEvictsLaggingSubscriber(t *testing.T) {
	srv := server.New()
	srv.SetStreamPolicy(16, 10*time.Second)
	hs := httptest.NewUnstartedServer(srv.Handler())
	hs.Listener = smallWriteBufListener{hs.Listener}
	hs.Start()
	t.Cleanup(hs.Close)
	t.Cleanup(srv.Shutdown)
	c := client.New(hs.URL, hs.Client())
	unitTenant(t, c, "acme", 4)

	// The lagging follower: reads 1 KiB every 2 ms — alive, just slow.
	slow := &http.Client{Transport: smallReadBufTransport()}
	resp, err := slow.Get(hs.URL + "/v1/tenants/acme/dispatches?from=0&follow=true")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	var (
		gotMu sync.Mutex
		got   bytes.Buffer
	)
	readerDone := make(chan error, 1)
	go func() {
		buf := make([]byte, 1024)
		for {
			n, err := resp.Body.Read(buf)
			gotMu.Lock()
			got.Write(buf[:n])
			gotMu.Unlock()
			if err != nil {
				readerDone <- err
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Outpace it until the server cuts it loose.
	deadline := time.Now().Add(10 * time.Second)
	for srv.StreamEvictions() == 0 && time.Now().Before(deadline) {
		pumpDispatches(t, c, "acme", 4, 1, 64)
	}
	if srv.StreamEvictions() == 0 {
		t.Fatal("no eviction despite sustained lag")
	}

	// The handler returned, so the reader drains the tail and hits EOF.
	select {
	case err := <-readerDone:
		if err != io.EOF {
			t.Fatalf("reader ended with %v, want EOF", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("evicted stream did not terminate")
	}

	gotMu.Lock()
	defer gotMu.Unlock()
	lines := bytes.Split(bytes.TrimSpace(got.Bytes()), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("stream delivered only %d lines", len(lines))
	}
	var gone server.StreamGone
	last := lines[len(lines)-1]
	if err := json.Unmarshal(last, &gone); err != nil || gone.Error == "" {
		t.Fatalf("last line is not the eviction control line: %s (%v)", last, err)
	}
	if gone.Status != http.StatusGone {
		t.Fatalf("control line status %d, want 410", gone.Status)
	}
	if !strings.Contains(gone.Error, fmt.Sprintf("?from=%d", gone.ResumeFrom)) {
		t.Fatalf("control line lacks the restart hint: %q", gone.Error)
	}
	if want := int64(len(lines) - 1); gone.ResumeFrom != want {
		t.Fatalf("resumeFrom %d, but %d events were delivered", gone.ResumeFrom, want)
	}
	// Every delivered line before the control line is a well-formed event.
	for i, ln := range lines[:len(lines)-1] {
		var ev server.DispatchEvent
		if err := json.Unmarshal(ln, &ev); err != nil {
			t.Fatalf("event line %d: %v", i, err)
		}
		if ev.Seq != int64(i) {
			t.Fatalf("event line %d has seq %d", i, ev.Seq)
		}
	}

	// Reconnecting at the hint replays the rest of the log seamlessly.
	st, err := c.StreamDispatches(context.Background(), "acme", gone.ResumeFrom, false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ev, err := st.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Seq != gone.ResumeFrom {
		t.Fatalf("resumed stream starts at seq %d, want %d", ev.Seq, gone.ResumeFrom)
	}
}

// TestStreamStallSeversWedgedReader: a reader that stops reading entirely
// cannot be delivered a 410 line — its pipe is full. The per-write stall
// deadline must sever it so the handler goroutine is reclaimed, and the
// server must remain fully serviceable afterwards.
func TestStreamStallSeversWedgedReader(t *testing.T) {
	srv := server.New()
	srv.SetStreamPolicy(-1, 300*time.Millisecond) // isolate the stall path
	hs := httptest.NewUnstartedServer(srv.Handler())
	hs.Listener = smallWriteBufListener{hs.Listener}
	hs.Start()
	t.Cleanup(hs.Close)
	t.Cleanup(srv.Shutdown)
	c := client.New(hs.URL, hs.Client())
	unitTenant(t, c, "acme", 4)

	// A raw TCP client that sends the request and then never reads.
	conn, err := net.Dial("tcp", hs.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetReadBuffer(2048)
	fmt.Fprintf(conn, "GET /v1/tenants/acme/dispatches?from=0&follow=true HTTP/1.1\r\nHost: pfaird\r\n\r\n")

	// Enough frames to fill both kernel buffers and jam the handler.
	pumpDispatches(t, c, "acme", 4, 12, 64)

	// The stall deadline must fire while the reader is still wedged. Only
	// once the server reports the sever do we start reading: draining any
	// earlier would un-jam the handler's blocked write, and a handler that
	// got its write through follows the tenant forever.
	for deadline := time.Now().Add(30 * time.Second); srv.StreamStallSevers() == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("stall deadline did not sever the wedged reader")
		}
	}

	// The handler has returned and the server closes the connection: a
	// bounded read-drain must reach an end (EOF or reset) rather than time
	// out against a still-open stream.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	rd := bufio.NewReader(conn)
	for {
		if _, err := rd.Discard(4096); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("connection still open: stall deadline did not sever the wedged reader")
			}
			break // EOF / reset: the server cut the connection
		}
	}

	// The server itself is unharmed: health and a fresh replay both work.
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, err := c.StreamDispatches(context.Background(), "acme", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var n int64
	for {
		if _, err := st.Next(); err != nil {
			break
		}
		n++
	}
	if want := int64(4 * 12 * 64); n != want {
		t.Fatalf("fresh replay saw %d events, want %d", n, want)
	}
}

package server_test

// Tests for the encode-once egress plane: byte-identity of every NDJSON
// stream with an independent re-encode (the frames a subscriber receives
// must be exactly what a per-subscriber json.Encoder would have written),
// fan-out correctness under churn with -race, and the slow-consumer
// rule — a lagging reader that keeps reading is served in full, and the
// write-stall deadline severs a fully wedged reader.

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
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"desyncpfair/internal/client"
	"desyncpfair/internal/hop"
	"desyncpfair/internal/hop/hoptest"
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
			hs := hoptest.NewServer(srv.Handler())
			t.Cleanup(hs.Close)
			t.Cleanup(func() { srv.Close() })
			c := client.New(hs.URL, nil)
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

			// Trace stream: same contract for the frames the ring renders on read.
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
	hs := hoptest.NewServer(durable.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() { durable.Close() })
	ref, refClient := newTestServer(t)
	both := []*client.Client{client.New(hs.URL, nil), refClient}
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
	if sealed := metricValue(t, durable.Handler(), "pfaird_tenant_history_sealed_events", "tenant", "acme"); sealed == 0 {
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

// TestFanoutStress runs 1 tenant × 32 follow-mode streams against
// concurrent submit churn plus short-lived streams that open and close,
// under -race. Every follower must see the complete dispatch log, in order,
// with no gaps and no duplicates — the shared frame cache may never tear.
// Each follower signals once it holds the whole log, or fails; the test
// waits for all of them.
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

	const total = int64(4 * rounds * perBatch)
	counts := make([]atomic.Int64, followers)
	errs := make([]error, followers)
	var wg, reached sync.WaitGroup
	reached.Add(followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var once sync.Once
			signal := func() { once.Do(reached.Done) }
			defer signal()
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
				if next == total {
					signal()
				}
			}
		}(i)
	}

	// Streams that open and close: short-lived replays racing the cache.
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
	if info.Dispatches != total {
		t.Fatalf("dispatched %d, want %d", info.Dispatches, total)
	}

	// Every follower must drain the full log; the backlog is finite now.
	allReached := make(chan struct{})
	go func() { reached.Wait(); close(allReached) }()
	select {
	case <-allReached:
	case <-time.After(15 * time.Second):
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

// TestLaggingFollowerIsPacedNotEvicted: a follower that keeps reading, but
// slower than the log grows, is served everything the log holds however
// far behind it falls. The follower reads over a net.Pipe, where a write
// returns only once the reader has taken all of it: it takes one frame of
// the stream's first 4-frame write and stops. While the handler is held in
// that write, more than 65 536 dispatches land and compaction seals some
// of them into history files, so the handler's next drain starts below
// the resident floor. The follower then reads on and must receive every
// frame of the log (the tenant's Dispatches) with no control
// line, byte for byte as a ?follow=false replay serves it.
func TestLaggingFollowerIsPacedNotEvicted(t *testing.T) {
	srv, err := server.Open(server.Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	hs := hoptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	c := client.New(hs.URL, nil)
	unitTenant(t, c, "acme", 4)

	var pipes hoptest.Pipes
	ps := &hop.Server{Handler: srv.Handler()}
	go ps.Serve(pipes.Listen("pfaird.test:80"))
	t.Cleanup(func() { ps.Close() })
	conn, err := pipes.Dial(context.Background(), "pfaird.test:80")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req, err := http.NewRequest(http.MethodGet, "http://pfaird.test/v1/tenants/acme/dispatches?from=0&follow=true", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := req.Write(conn); err != nil {
		t.Fatal(err)
	}
	paced := &pacedReader{Reader: conn}
	// The body is left unclosed: closing it would read the following
	// stream to its end. Closing conn ends it.
	resp, err := http.ReadResponse(bufio.NewReaderSize(paced, 16), req)
	if err != nil {
		t.Fatal(err)
	}

	// The first write carries 4 frames; the follower takes one.
	pumpDispatches(t, c, "acme", 4, 1, 1)
	var got bytes.Buffer
	for b := make([]byte, 1); !bytes.HasSuffix(got.Bytes(), []byte("\n")); {
		n, err := resp.Body.Read(b)
		if err != nil {
			t.Fatalf("first frame: %v", err)
		}
		got.Write(b[:n])
	}
	// Outgrow it by more than 65 536 records while the handler waits on the
	// rest of that write: 17 rounds of 4 tasks × 1024 jobs. Each batch
	// submit crosses the default SnapshotEvery, so the compactions it runs
	// seal the log a segment at a time.
	pumpDispatches(t, c, "acme", 4, 17, server.MaxBatchJobs)
	info, err := c.Tenant(context.Background(), "acme")
	if err != nil {
		t.Fatal(err)
	}
	const total = 4 + 17*4*server.MaxBatchJobs
	if info.Dispatches != total {
		t.Fatalf("log holds %d dispatches, want %d", info.Dispatches, total)
	}
	if sealed := metricValue(t, srv.Handler(), "pfaird_tenant_history_sealed_events", "tenant", "acme"); sealed <= 4 {
		t.Fatalf("%d events sealed: the follower's next drain would not start below the resident floor", sealed)
	}

	// The handler finishes the write and serves the rest: sealed history
	// from the files, then the resident chunks.
	paced.open = true
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for n := int64(1); n < total; n++ {
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("stream ended after %d of %d lines: %v", n, total, err)
		}
		got.Write(line)
	}
	if n := br.Buffered(); n != 0 {
		t.Fatalf("%d bytes follow the log's last frame", n)
	}
	want := bytes.Join(ndjsonLines(t, hs.URL+"/v1/tenants/acme/dispatches?from=0&follow=false"), nil)
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("follower read %d bytes that differ from the %d-byte replay", got.Len(), len(want))
	}
}

// TestStreamStallSeversWedgedReader: a reader that stops reading entirely
// must be severed by the per-write stall deadline so the handler goroutine
// is reclaimed, and the server must remain fully serviceable afterwards.
// Every feed of the one stream loop is covered: a tenant's dispatch
// stream, and the replication log a follower tails. For either, the
// deadline is all that stands between a wedged reader and a handler held
// forever.
func TestStreamStallSeversWedgedReader(t *testing.T) {
	t.Run("dispatches", testStallDispatches)
	t.Run("replication", testStallReplication)
}

// wedgedReader sends one GET over a raw TCP connection with a tiny receive
// buffer, and then never reads.
func wedgedReader(t *testing.T, addr, path string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.(*net.TCPConn).SetReadBuffer(2048)
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: pfaird\r\n\r\n", path)
	return conn
}

// awaitSever waits for the stall deadline to sever conn's stream, and then
// for the server to close conn.
func awaitSever(t *testing.T, srv *server.Server, conn net.Conn) {
	t.Helper()
	// The stall deadline must fire while the reader is still wedged. Only
	// once the server reports the sever do we start reading: draining any
	// earlier would un-jam the handler's blocked write, and a handler that
	// got its write through follows its source forever.
	severs := func() int64 { return metricValue(t, srv.Handler(), "pfaird_stream_stall_severs_total") }
	for deadline := time.Now().Add(30 * time.Second); severs() == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("stall deadline did not sever the wedged reader")
		}
	}
	if n := severs(); n != 1 {
		t.Fatalf("%d stall severs, want 1", n)
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
}

func testStallDispatches(t *testing.T) {
	srv, err := server.Open(server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetStreamStall(300 * time.Millisecond)
	hs := hoptest.NewUnstartedServer(srv.Handler())
	hs.Listener = smallWriteBufListener{hs.Listener}
	hs.Start()
	t.Cleanup(hs.Close)
	t.Cleanup(srv.Shutdown)
	c := client.New(hs.URL, nil)
	unitTenant(t, c, "acme", 4)

	conn := wedgedReader(t, hs.Listener.Addr().String(), "/v1/tenants/acme/dispatches?from=0&follow=true")
	// Enough frames to fill both kernel buffers and jam the handler.
	pumpDispatches(t, c, "acme", 4, 12, 64)
	awaitSever(t, srv, conn)

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

func testStallReplication(t *testing.T) {
	srv, err := server.Open(server.Options{
		DataDir: t.TempDir(), FS: quickSyncFS{}, FsyncEvery: 1 << 20, FsyncMaxDelay: -1, SnapshotEvery: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetStreamStall(300 * time.Millisecond)
	hs := hoptest.NewUnstartedServer(srv.Handler())
	hs.Listener = smallWriteBufListener{hs.Listener}
	hs.Start()
	t.Cleanup(func() {
		hs.CloseClientConnections()
		hs.Close()
		srv.Close()
	})

	conn := wedgedReader(t, hs.Listener.Addr().String(), "/v1/replication/log?from=1&follow=true")
	// Enough durable records to fill both kernel buffers and jam the handler.
	for i := 0; i < 8192; i++ {
		if err := srv.JournalMarker(); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.SyncJournal(); err != nil {
		t.Fatal(err)
	}
	awaitSever(t, srv, conn)
	if n := metricValue(t, srv.Handler(), "pfaird_replication_log_streams"); n != 0 {
		t.Fatalf("pfaird_replication_log_streams = %d after the sever: the handler did not return", n)
	}

	// The leader itself is unharmed: a fresh replay ships every record.
	if recs := replicationLog(t, srv.Handler()); len(recs) != 8192 {
		t.Fatalf("fresh replay shipped %d records, want 8192", len(recs))
	}
}

// pacedReader reads a byte at a time until open is set, so a buffered
// reader over a pipe takes nothing from it before it is asked for; once
// open, it passes every read through whole.
type pacedReader struct {
	io.Reader
	open bool
}

func (r *pacedReader) Read(p []byte) (int, error) {
	if !r.open {
		p = p[:min(len(p), 1)]
	}
	return r.Reader.Read(p)
}

// TestInMemoryStreamMatchesDurable runs one seeded command script, with
// task names JSON escapes, on an in-memory server and on a durable one.
// The in-memory tenant holds compact records from its first frame and
// closes a chunk of them every 64 KiB (≈ 13 200 frames here), and the
// script runs until it has closed three; the journaled one keeps wire bytes,
// seals them into history files — by itself every 4 096 frames, at
// production's segment size, and at the compaction — and keeps wire bytes
// again once restored from its snapshot and journal. Whichever form
// serves them,
// ?from=k&follow=false is byte-identical at every chunk boundary and
// either side of it, mid-chunk, at 0 and at the end, and a follower opened
// at 0 before the load reads the same bytes.
func TestInMemoryStreamMatchesDurable(t *testing.T) {
	defer server.SetHistSegmentMin(4096)()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	type node struct {
		srv *server.Server
		url string
		c   *client.Client
	}
	serve := func(srv *server.Server) *node {
		hs := hoptest.NewServer(srv.Handler())
		t.Cleanup(hs.Close)
		t.Cleanup(func() { srv.Close() })
		return &node{srv, hs.URL + "/v1/tenants/acme/dispatches", client.New(hs.URL, nil)}
	}
	dir := t.TempDir()
	open := func() *node {
		srv, err := server.Open(server.Options{DataDir: dir, SnapshotEvery: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		return serve(srv)
	}
	mem, dur := serve(server.New()), open()
	names := []string{"web", `q"uote\`, "line\u2028sep<&>", "é"}
	weights := []model.Weight{model.W(3, 4), model.W(1, 2), model.W(1, 2), model.W(1, 4)} // Σ = M
	var follows []*http.Response
	for _, n := range []*node{mem, dur} {
		if _, err := n.c.CreateTenant(ctx, "acme", 2, ""); err != nil {
			t.Fatal(err)
		}
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, n.url+"?from=0", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		follows = append(follows, resp)
		for i, name := range names {
			if _, err := n.c.RegisterTask(ctx, "acme", name, weights[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(38))
	load := func(rounds int) {
		t.Helper()
		for r := 0; r < rounds; r++ {
			var jobs []server.SubmitJobRequest
			for _, name := range names {
				for k := 4 * rng.Intn(4); k > 0; k-- {
					jobs = append(jobs, server.SubmitJobRequest{Task: name})
				}
			}
			by := fmt.Sprint(4 * (2 + rng.Intn(7)))
			for _, n := range []*node{mem, dur} {
				if len(jobs) > 0 {
					if _, err := n.c.SubmitJobs(ctx, "acme", jobs); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := n.c.AdvanceBy(ctx, "acme", by); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	get := func(url string) []byte {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d, %v", url, resp.StatusCode, err)
		}
		return b
	}
	// compare checks both streams from every seq that matters to the
	// in-memory log's chunks, and that the durable tenant holds closed
	// chunks, none of them cold. It returns the whole stream.
	compare := func(when string, durChunks int) []byte {
		t.Helper()
		bounds, cold := mem.srv.DispatchChunks("acme")
		if b, c := dur.srv.DispatchChunks("acme"); cold < 3 || cold != len(bounds)-1 || c != 0 || len(b)-1 < durChunks {
			t.Fatalf("%s: in memory %d of %d closed chunks cold, durable %d of %d; want all of at least 3, and none of at least %d",
				when, cold, len(bounds)-1, c, len(b)-1, durChunks)
		}
		all := get(mem.url + "?from=0&follow=false")
		total := int64(bytes.Count(all, []byte{'\n'}))
		froms := []int64{0, (bounds[1] + bounds[2]) / 2, total}
		for _, b := range bounds[1:] {
			froms = append(froms, b-1, b, b+1)
		}
		for _, k := range froms {
			q := fmt.Sprintf("?from=%d&follow=false", k)
			if m, d := get(mem.url+q), get(dur.url+q); !bytes.Equal(m, d) {
				t.Fatalf("%s, from %d: in memory %d bytes, durable %d", when, k, len(m), len(d))
			}
		}
		t.Logf("%s: %d frames, %d closed chunks in memory", when, total, len(bounds)-1)
		return all
	}

	// The script runs until the in-memory log has closed three chunks and
	// the durable one, resident since its last seal, three too, so a change
	// to either record's size moves where the checks land, not whether they
	// can.
	for r := 0; ; r++ {
		m, _ := mem.srv.DispatchChunks("acme")
		d, _ := dur.srv.DispatchChunks("acme")
		if len(m)-1 >= 3 && len(d)-1 >= 3 {
			break
		}
		if r == 5000 {
			t.Fatalf("%d rounds closed %d chunks in memory and left %d closed durable ones", r, len(m)-1, len(d)-1)
		}
		load(1)
	}
	all := compare("resident", 3)
	for _, resp := range follows {
		got := make([]byte, len(all))
		if _, err := io.ReadFull(resp.Body, got); err != nil || !bytes.Equal(got, all) {
			t.Fatalf("the follower opened at 0 read other bytes (%v)", err)
		}
	}
	if err := dur.srv.Compact(); err != nil {
		t.Fatal(err)
	}
	compare("sealed", 0)
	load(100)
	dur.srv.Close()
	dur = open() // restored from the snapshot, the last 100 rounds replayed
	load(100)
	compare("restored", 1)
}

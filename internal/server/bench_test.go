package server_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"desyncpfair/internal/client"
	"desyncpfair/internal/model"
	"desyncpfair/internal/server"
	"desyncpfair/internal/wal"
)

// BenchmarkServerSubmit measures the submit hot path end to end — client
// marshal, HTTP round trip, the hop through the tenant's submit ring to
// its single-writer loop, executive release — with a periodic advance so
// the dispatch log keeps moving and the executive never accumulates an
// unbounded backlog.
func BenchmarkServerSubmit(b *testing.B) {
	srv := server.New()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Shutdown()
	c := client.New(hs.URL, hs.Client())
	ctx := context.Background()

	if _, err := c.CreateTenant(ctx, "bench", 2, ""); err != nil {
		b.Fatal(err)
	}
	const tasks = 8
	for i := 0; i < tasks; i++ {
		if _, err := c.RegisterTask(ctx, "bench", fmt.Sprintf("w%d", i), model.W(1, tasks)); err != nil {
			b.Fatal(err)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SubmitJob(ctx, "bench", fmt.Sprintf("w%d", i%tasks), ""); err != nil {
			b.Fatal(err)
		}
		if i%tasks == tasks-1 {
			if _, err := c.AdvanceBy(ctx, "bench", "1"); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkServerSubmitWAL is BenchmarkServerSubmit against a durable
// server: every submit is journaled (group-commit, fsync once per 64
// records) before it is acknowledged. The delta against the in-memory
// benchmark is the full durability overhead on the hot path.
func BenchmarkServerSubmitWAL(b *testing.B) {
	srv, err := server.Open(server.Options{
		DataDir:       b.TempDir(),
		FsyncEvery:    64,
		SnapshotEvery: 1 << 30, // keep compaction out of the measured loop
	})
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Close()
	c := client.New(hs.URL, hs.Client())
	ctx := context.Background()

	if _, err := c.CreateTenant(ctx, "bench", 2, ""); err != nil {
		b.Fatal(err)
	}
	const tasks = 8
	for i := 0; i < tasks; i++ {
		if _, err := c.RegisterTask(ctx, "bench", fmt.Sprintf("w%d", i), model.W(1, tasks)); err != nil {
			b.Fatal(err)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SubmitJob(ctx, "bench", fmt.Sprintf("w%d", i%tasks), ""); err != nil {
			b.Fatal(err)
		}
		if i%tasks == tasks-1 {
			if _, err := c.AdvanceBy(ctx, "bench", "1"); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// slowFS wraps the real filesystem and adds a fixed latency to every
// file fsync, modeling a commodity disk whose cache flush costs ~2ms.
// The parallel benchmark needs the model: on CI filesystems an fsync is
// a sub-millisecond syscall, which on a small GOMAXPROCS never yields
// the processor, so the whole server serializes behind it and coalesced
// and per-record fsync become indistinguishable. A slept delay parks the
// leader like a real device wait would, letting concurrent submits queue
// behind it — the regime the group-commit pipeline exists for.
type slowFS struct {
	wal.OSFS
	delay time.Duration
}

func (s slowFS) Create(path string) (wal.File, error) {
	f, err := s.OSFS.Create(path)
	if err != nil {
		return nil, err
	}
	return slowFile{File: f, delay: s.delay}, nil
}

type slowFile struct {
	wal.File
	delay time.Duration
}

func (f slowFile) Sync() error {
	time.Sleep(f.delay)
	return f.File.Sync()
}

// BenchmarkServerSubmitParallel measures durable-submit throughput under
// concurrent clients — the workload the group-commit pipeline exists for.
// The journal writes through slowFS (2ms per fsync, a realistic disk
// flush). Each client drives its own tenant over a shared keep-alive
// transport, so the only cross-client coupling is the WAL: with fsync=1
// every ack needs durability, and the reported fsyncs/op (≪ 1 at high
// concurrency) is the coalescing in action. ns/op is per submitted job
// across all clients, so dividing the clients=1 value by the clients=64
// value gives the scalability factor directly.
func BenchmarkServerSubmitParallel(b *testing.B) {
	for _, fsyncEvery := range []int{1, 32} {
		for _, clients := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("fsync=%d/clients=%d", fsyncEvery, clients), func(b *testing.B) {
				benchSubmitParallel(b, fsyncEvery, clients)
			})
		}
	}
}

func benchSubmitParallel(b *testing.B, fsyncEvery, clients int) {
	srv, err := server.Open(server.Options{
		DataDir:       b.TempDir(),
		FS:            slowFS{delay: 2 * time.Millisecond},
		FsyncEvery:    fsyncEvery,
		SnapshotEvery: 1 << 30, // keep compaction out of the measured loop
	})
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Close()

	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = clients * 2
	tr.MaxIdleConnsPerHost = clients * 2
	defer tr.CloseIdleConnections()
	c := client.New(hs.URL, &http.Client{Transport: tr})
	ctx := context.Background()

	const tasks = 4
	for i := 0; i < clients; i++ {
		id := fmt.Sprintf("t%02d", i)
		if _, err := c.CreateTenant(ctx, id, 1, ""); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < tasks; j++ {
			if _, err := c.RegisterTask(ctx, id, fmt.Sprintf("w%d", j), model.W(1, tasks)); err != nil {
				b.Fatal(err)
			}
		}
	}
	before := srv.WALStats()

	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			n := 0
			for {
				i := next.Add(1)
				if i > int64(b.N) {
					return
				}
				if _, err := c.SubmitJob(ctx, id, fmt.Sprintf("w%d", n%tasks), ""); err != nil {
					errc <- err
					return
				}
				n++
				if n%(2*tasks) == 0 {
					if _, err := c.AdvanceBy(ctx, id, "1"); err != nil {
						errc <- err
						return
					}
				}
			}
		}(fmt.Sprintf("t%02d", i))
	}
	wg.Wait()
	b.StopTimer()
	select {
	case err := <-errc:
		b.Fatal(err)
	default:
	}
	after := srv.WALStats()
	b.ReportMetric(float64(after.Fsyncs-before.Fsyncs)/float64(b.N), "fsyncs/op")
	b.ReportMetric(float64(after.Appends-before.Appends)/float64(b.N), "appends/op")
}

// BenchmarkServerSubmitContended is the sharpest test of the single-writer
// event loop: every client submits to the SAME tenant, so all requests
// funnel through one MPSC ring and one loop goroutine. Under the old
// per-tenant mutex this serialized completely; the loop instead drains the
// concurrent arrivals as a run, validates each, journals them as one frame
// group and shares one commit — so fsyncs/op and appends/op fall as
// concurrency rises while every ack still waits for durability. A 429
// (ring full) is backpressure, not failure: the client retries, and the
// retry cost is part of the measured regime.
func BenchmarkServerSubmitContended(b *testing.B) {
	for _, clients := range []int{8, 64} {
		b.Run(fmt.Sprintf("fsync=1/clients=%d", clients), func(b *testing.B) {
			benchSubmitContended(b, clients)
		})
	}
}

func benchSubmitContended(b *testing.B, clients int) {
	srv, err := server.Open(server.Options{
		DataDir:       b.TempDir(),
		FS:            slowFS{delay: 2 * time.Millisecond},
		FsyncEvery:    1,
		SnapshotEvery: 1 << 30, // keep compaction out of the measured loop
	})
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Close()

	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = clients * 2
	tr.MaxIdleConnsPerHost = clients * 2
	defer tr.CloseIdleConnections()
	c := client.New(hs.URL, &http.Client{Transport: tr})
	ctx := context.Background()

	const tasks = 4
	if _, err := c.CreateTenant(ctx, "hot", 1, ""); err != nil {
		b.Fatal(err)
	}
	for j := 0; j < tasks; j++ {
		if _, err := c.RegisterTask(ctx, "hot", fmt.Sprintf("w%d", j), model.W(1, tasks)); err != nil {
			b.Fatal(err)
		}
	}
	before := srv.WALStats()

	retry429 := func(do func() error) error {
		for {
			err := do()
			var ae *client.APIError
			if errors.As(err, &ae) && ae.Status == http.StatusTooManyRequests {
				continue
			}
			return err
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for {
				i := next.Add(1)
				if i > int64(b.N) {
					return
				}
				err := retry429(func() error {
					_, err := c.SubmitJob(ctx, "hot", fmt.Sprintf("w%d", n%tasks), "")
					return err
				})
				if err != nil {
					errc <- err
					return
				}
				n++
				if i%(8*int64(tasks)) == 0 {
					err := retry429(func() error {
						_, err := c.AdvanceBy(ctx, "hot", "1")
						return err
					})
					if err != nil {
						errc <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	select {
	case err := <-errc:
		b.Fatal(err)
	default:
	}
	after := srv.WALStats()
	b.ReportMetric(float64(after.Fsyncs-before.Fsyncs)/float64(b.N), "fsyncs/op")
	b.ReportMetric(float64(after.Appends-before.Appends)/float64(b.N), "appends/op")
}

// BenchmarkCompact measures one compaction of a server whose single
// tenant has already made `history` scheduling decisions: each iteration
// is one job, one advance (one new decision) and the compaction those
// three journal records trigger at SnapshotEvery=3, so ns/op is the
// compaction plus two in-process requests. Compaction writes what
// happened since the previous one — the two rows must stay within 1.5× of
// each other. When every snapshot re-encoded the tenant's whole dispatch
// log they were ≈ 10× apart.
func BenchmarkCompact(b *testing.B) {
	for _, history := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("history=%dk", history/1000), func(b *testing.B) {
			defer server.SetHistSegmentMin(4096)()
			dir := b.TempDir()
			do := func(h http.Handler, method, path string, body any) {
				b.Helper()
				if code := doCmd(b, h, cmd{method, path, body}); code >= 300 {
					b.Fatalf("%s %s: %d", method, path, code)
				}
			}
			// Build the history without compacting, then reopen at the
			// benchmark's cadence.
			srv, err := server.Open(server.Options{DataDir: dir, FsyncEvery: 1 << 20, FsyncMaxDelay: -1, SnapshotEvery: 1 << 30})
			if err != nil {
				b.Fatal(err)
			}
			const tasks = 16
			var batch server.SubmitJobsRequest
			do(srv.Handler(), "POST", "/v1/tenants", server.CreateTenantRequest{ID: "long", M: 2})
			for i := 0; i < tasks; i++ {
				name := fmt.Sprintf("t%d", i)
				do(srv.Handler(), "POST", "/v1/tenants/long/tasks", server.RegisterTaskRequest{Name: name, E: 1, P: 8})
				batch.Jobs = append(batch.Jobs, server.SubmitJobRequest{Task: name})
			}
			for n := 0; n < history; n += tasks {
				do(srv.Handler(), "POST", "/v1/tenants/long/jobs:batch", batch)
				do(srv.Handler(), "POST", "/v1/tenants/long/advance", server.AdvanceRequest{By: "8"})
			}
			if err := srv.Close(); err != nil {
				b.Fatal(err)
			}
			srv, err = server.Open(server.Options{DataDir: dir, FsyncEvery: 1 << 20, FsyncMaxDelay: -1, SnapshotEvery: 3})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			h := srv.Handler()
			before := srv.WALStats().Snapshots
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				do(h, "POST", "/v1/tenants/long/jobs", server.SubmitJobRequest{Task: "t0"})
				do(h, "POST", "/v1/tenants/long/advance", server.AdvanceRequest{By: "8"})
			}
			b.StopTimer()
			if got := srv.WALStats().Snapshots - before; got != uint64(b.N) {
				b.Fatalf("%d iterations compacted %d times", b.N, got)
			}
		})
	}
}

package cluster_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"desyncpfair/internal/client"
	"desyncpfair/internal/cluster"
	"desyncpfair/internal/model"
	"desyncpfair/internal/server"
)

// benchLeader is a durable leader behind an httptest listener holding one
// tenant of 8 tasks — ten journal records past its boot snapshot — with
// everything it wrote made durable before it is returned.
func benchLeader(b *testing.B, fsyncEvery int) (*server.Server, *httptest.Server, *client.Client) {
	b.Helper()
	srv, err := server.Open(server.Options{DataDir: b.TempDir(), FsyncEvery: fsyncEvery})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	b.Cleanup(hs.Close)
	c := client.New(hs.URL, hs.Client())
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, "bench", 1, ""); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := c.RegisterTask(ctx, "bench", fmt.Sprintf("t%d", i), model.W(1, 8)); err != nil {
			b.Fatal(err)
		}
	}
	for srv.WALStats().Unsynced > 0 { // the idle flush, at most -fsync-max-delay away
		time.Sleep(time.Millisecond)
	}
	return srv, hs, c
}

// BenchmarkReplicaReady times a replica's cold start against an idle leader,
// the follower's share of the repository benchmark's routed_replica set-up:
// per iteration a fresh directory, Bootstrap, server.Open as a follower,
// StartFollower, and /healthz polled until it answers 200 — the instant a
// router would start sending it reads. The leader runs pfaird's shipped
// durability flags. Stopping the replica is not timed.
func BenchmarkReplicaReady(b *testing.B) {
	_, lhs, _ := benchLeader(b, 64)
	root := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir, err := os.MkdirTemp(root, "replica-")
		if err != nil {
			b.Fatal(err)
		}
		if err := cluster.Bootstrap(dir, lhs.URL, nil, nil); err != nil {
			b.Fatal(err)
		}
		srv, err := server.Open(server.Options{DataDir: dir, FsyncEvery: 64, Follower: true})
		if err != nil {
			b.Fatal(err)
		}
		fhs := httptest.NewServer(srv.Handler())
		fol := cluster.StartFollower(srv, lhs.URL, nil)
		for {
			resp, err := http.Get(fhs.URL + "/healthz")
			if err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		b.StopTimer()
		_ = fol.Seal()
		fhs.Close()
		if err := srv.Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkReplicaVisible times how long a write the leader has acknowledged
// as durable (-fsync-every 1) stays invisible on a caught-up replica: from
// the ack of one keyed submit to the follower's AppliedLSN covering its
// record — the writes a promotion at that instant would lose. Only that
// interval is timed, on the benchmark's own stopwatch (stopping the testing
// timer every iteration would put a stop-the-world beside a sub-millisecond
// reading); the loop waits in short sleeps so that at -cpu 1 the processor is
// the replication path's, not a spinning reader's. The loop is closed: each
// submit follows the instant the one before became visible, so against a
// stream that looks for new records on a period it reads nearly the whole
// period, where a write at an arbitrary instant waits half of it.
func BenchmarkReplicaVisible(b *testing.B) {
	lsrv, lhs, c := benchLeader(b, 1)
	dir := b.TempDir()
	if err := cluster.Bootstrap(dir, lhs.URL, nil, nil); err != nil {
		b.Fatal(err)
	}
	fsrv, err := server.Open(server.Options{DataDir: dir, FsyncEvery: 64, Follower: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { fsrv.Close() })
	fol := cluster.StartFollower(fsrv, lhs.URL, nil)
	b.Cleanup(func() { _ = fol.Seal() })
	for fsrv.AppliedLSN() < lsrv.AppliedLSN() {
		time.Sleep(time.Millisecond)
	}

	ctx := context.Background()
	var invisible time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := server.SubmitJobRequest{Task: fmt.Sprintf("t%d", i%8), Key: fmt.Sprintf("k%d", i)}
		if _, err := c.SubmitJobKeyed(ctx, "bench", req); err != nil {
			b.Fatal(err)
		}
		acked := time.Now()
		for want := lsrv.AppliedLSN(); fsrv.AppliedLSN() < want; {
			time.Sleep(10 * time.Microsecond)
		}
		invisible += time.Since(acked)
		if i%8 == 7 {
			if _, err := c.AdvanceBy(ctx, "bench", "8"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(invisible.Nanoseconds())/float64(b.N), "ns/op")
}

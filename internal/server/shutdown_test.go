package server_test

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"desyncpfair/internal/client"
	"desyncpfair/internal/hop/hoptest"
	"desyncpfair/internal/model"
	"desyncpfair/internal/server"
)

// TestShutdownDuringStreamLeavesRecoverableDir pins the graceful-shutdown
// edge the daemon hits on SIGTERM: a durable server is closed while a
// follower is blocked on a live NDJSON stream. The stream must end with a
// clean EOF after delivering a contiguous prefix of the dispatch log, and
// the data directory must reopen with nothing to replay and nothing lost.
func TestShutdownDuringStreamLeavesRecoverableDir(t *testing.T) {
	dir := t.TempDir()
	srv, err := server.Open(server.Options{DataDir: dir, FsyncEvery: 4, SnapshotEvery: 32})
	if err != nil {
		t.Fatal(err)
	}
	hs := hoptest.NewServer(srv.Handler())
	defer hs.Close()
	c := client.New(hs.URL, nil)
	ctx := context.Background()

	if _, err := c.CreateTenant(ctx, "t", 2, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterTask(ctx, "t", "w", model.W(1, 2)); err != nil {
		t.Fatal(err)
	}
	var produced int64
	for i := 0; i < 6; i++ {
		if _, err := c.SubmitJob(ctx, "t", "w", ""); err != nil {
			t.Fatal(err)
		}
		adv, err := c.AdvanceBy(ctx, "t", "1")
		if err != nil {
			t.Fatal(err)
		}
		produced += adv.Dispatched
	}
	if produced == 0 {
		t.Fatal("load produced no dispatches")
	}

	st, err := c.StreamDispatches(ctx, "t", 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Consume the backlog, then close the server while the stream is
	// blocked waiting for live decisions.
	var got int64
	for got < produced {
		ev, err := st.Next()
		if err != nil {
			t.Fatalf("stream after %d events: %v", got, err)
		}
		if ev.Seq != got {
			t.Fatalf("stream delivered seq %d at position %d: not contiguous", ev.Seq, got)
		}
		got++
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	for {
		ev, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("stream must drain to EOF on shutdown, got %v", err)
		}
		if ev.Seq != got {
			t.Fatalf("stream delivered seq %d at position %d during shutdown", ev.Seq, got)
		}
		got++
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The final snapshot covers everything: reopen replays zero records
	// and serves the full history.
	srv2, err := server.Open(server.Options{DataDir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer srv2.Close()
	if rec := srv2.Recovery(); rec.RecordsReplayed != 0 || rec.ReplayErrors != 0 {
		t.Fatalf("reopen replayed %d records with %d errors, want a snapshot-only boot", rec.RecordsReplayed, rec.ReplayErrors)
	}
	hs2 := hoptest.NewServer(srv2.Handler())
	defer hs2.Close()
	st2, err := client.New(hs2.URL, nil).StreamDispatches(ctx, "t", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	var recovered int64
	for {
		if _, err := st2.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		recovered++
	}
	if recovered != produced {
		t.Fatalf("recovered %d dispatch events, want %d", recovered, produced)
	}
}

// TestCloseDuringSnapshotStorm closes the server while concurrent clients
// mutate under SnapshotEvery=1 — every command races a compaction, so
// Close overlaps snapshot writes by construction. Whatever was
// acknowledged must survive reopen, exactly.
func TestCloseDuringSnapshotStorm(t *testing.T) {
	dir := t.TempDir()
	srv, err := server.Open(server.Options{DataDir: dir, FsyncEvery: 1, SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := hoptest.NewServer(srv.Handler())
	defer hs.Close()
	ctx := context.Background()
	c := client.New(hs.URL, nil)

	if _, err := c.CreateTenant(ctx, "t", 2, ""); err != nil {
		t.Fatal(err)
	}
	const workers = 4
	for i := 0; i < workers; i++ {
		if _, err := c.RegisterTask(ctx, "t", fmt.Sprintf("w%d", i), model.W(1, workers)); err != nil {
			t.Fatal(err)
		}
	}

	// acked counts commands the server acknowledged with a 2xx; every one
	// of them was journaled (or snapshotted) before the response.
	var acked atomic.Int64
	acked.Add(1 + workers) // create + registers above
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			task := fmt.Sprintf("w%d", w)
			for i := 0; i < 40; i++ {
				if _, err := c.SubmitJob(ctx, "t", task, ""); err != nil {
					return // shutdown reached this worker
				}
				acked.Add(1)
				if i%4 == 3 {
					if _, err := c.AdvanceBy(ctx, "t", "1/2"); err != nil {
						return
					}
					acked.Add(1)
				}
			}
		}(w)
	}
	close(start)
	if err := srv.Close(); err != nil {
		t.Fatalf("Close amid the storm: %v", err)
	}
	wg.Wait()

	srv2, err := server.Open(server.Options{DataDir: dir})
	if err != nil {
		t.Fatalf("reopen after storm: %v", err)
	}
	defer srv2.Close()
	rec := srv2.Recovery()
	if rec.ReplayErrors != 0 || rec.DispatchMismatches != 0 {
		t.Fatalf("storm recovery: %d replay errors, %d dispatch mismatches", rec.ReplayErrors, rec.DispatchMismatches)
	}
	if rec.Commands != uint64(acked.Load()) {
		t.Fatalf("recovered %d commands, %d were acknowledged", rec.Commands, acked.Load())
	}
	if rec.Tenants != 1 {
		t.Fatalf("recovered %d tenants, want 1", rec.Tenants)
	}
}

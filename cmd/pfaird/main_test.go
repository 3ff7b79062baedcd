package main

import (
	"context"
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"desyncpfair/internal/client"
	"desyncpfair/internal/hop/hoptest"
	"desyncpfair/internal/model"
	"desyncpfair/internal/server"
)

// TestSIGTERMDuringStreamDrainsAndRecovers boots the real daemon loop on a
// random port with a data directory, opens a live dispatch stream, and
// delivers an actual SIGTERM while the stream is blocked. The daemon must
// exit cleanly (stream EOF, serve() returns nil) and the directory must
// reopen as a snapshot-only boot with every acknowledged command intact.
func TestSIGTERMDuringStreamDrainsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	cfg := config{
		addr:  "127.0.0.1:0",
		grace: 5 * time.Second,
		pprof: true,
		server: server.Options{
			DataDir:       dir,
			FsyncEvery:    2,
			SnapshotEvery: 8, // several snapshot writes during the short run
		},
	}
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- serve(context.Background(), cfg, func(a string) { addrCh <- a })
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("serve exited before listening: %v", err)
	}

	ctx := context.Background()
	c := client.New("http://"+addr, nil)

	// The -pprof flag mounts the profile index on the same listener.
	resp, err := http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: status %d", resp.StatusCode)
	}

	if _, err := c.CreateTenant(ctx, "t", 2, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterTask(ctx, "t", "w", model.W(2, 3)); err != nil {
		t.Fatal(err)
	}
	var produced int64
	for i := 0; i < 5; i++ {
		if _, err := c.SubmitJob(ctx, "t", "w", ""); err != nil {
			t.Fatal(err)
		}
		adv, err := c.AdvanceBy(ctx, "t", "1")
		if err != nil {
			t.Fatal(err)
		}
		produced += adv.Dispatched
	}
	acked := int64(2 + 5*2) // create, register, and the loop's commands

	st, err := c.StreamDispatches(ctx, "t", 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var got int64
	for got < produced {
		if _, err := st.Next(); err != nil {
			t.Fatalf("stream after %d events: %v", got, err)
		}
		got++
	}

	// The stream is now blocked on live decisions; pull the trigger.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := st.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("stream must drain to EOF on SIGTERM, got %v", err)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after SIGTERM", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit within 10s of SIGTERM")
	}

	// The final snapshot makes the next boot replay-free and complete.
	srv, err := server.Open(server.Options{DataDir: dir})
	if err != nil {
		t.Fatalf("reopen after SIGTERM: %v", err)
	}
	defer srv.Close()
	rec := srv.Recovery()
	if rec.RecordsReplayed != 0 || rec.ReplayErrors != 0 || rec.DispatchMismatches != 0 {
		t.Fatalf("post-SIGTERM boot: %+v, want a clean snapshot-only recovery", rec)
	}
	if rec.Commands != uint64(acked) {
		t.Fatalf("recovered %d commands, %d were acknowledged before SIGTERM", rec.Commands, acked)
	}
	if rec.Tenants != 1 {
		t.Fatalf("recovered %d tenants, want 1", rec.Tenants)
	}
}

// TestFollowURLTrailingSlash: -follow takes the leader's base URL with a
// trailing slash, as pfair-router's -backends does. The node bootstraps from
// the leader, tails it and leaves bootstrap: /healthz answers 200.
func TestFollowURLTrailingSlash(t *testing.T) {
	leader, err := server.Open(server.Options{DataDir: t.TempDir(), FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	lhs := hoptest.NewServer(leader.Handler())
	defer lhs.Close()
	if _, err := client.New(lhs.URL, nil).CreateTenant(context.Background(), "t", 1, ""); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cfg := config{addr: "127.0.0.1:0", grace: 5 * time.Second, follow: lhs.URL + "/", server: server.Options{DataDir: t.TempDir(), FsyncEvery: 1}}
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- serve(ctx, cfg, func(a string) { addrCh <- a }) }()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("-follow %s/: serve exited before listening: %v", lhs.URL, err)
	}
	c := client.New("http://"+addr, nil)
	for {
		if c.Health(ctx) == nil {
			break
		}
		select {
		case <-ctx.Done():
			t.Fatalf("-follow %s/: the follower never caught up", lhs.URL)
		case <-time.After(10 * time.Millisecond):
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestFollowMalformedURL: a -follow URL that is not http://host:port fails
// the start once, naming the URL, before the node listens.
func TestFollowMalformedURL(t *testing.T) {
	for _, follow := range []string{"leader.test:8080", "http://leader.test:8080/v1", "https://leader.test:8080"} {
		cfg := config{addr: "127.0.0.1:0", grace: time.Second, follow: follow, server: server.Options{DataDir: t.TempDir()}}
		err := serve(context.Background(), cfg, func(string) { t.Errorf("-follow %s: serve listened", follow) })
		if err == nil || !strings.Contains(err.Error(), follow) {
			t.Errorf("-follow %s: serve returned %v, want an error naming the URL", follow, err)
		}
	}
}

// TestFollowWithoutDataDir: a follower's journal is its promotion state, so
// -follow without -data-dir fails the start, in the flags' words, before
// the node bootstraps or listens.
func TestFollowWithoutDataDir(t *testing.T) {
	cfg := config{addr: "127.0.0.1:0", grace: time.Second, follow: "http://leader.test:8080"}
	err := serve(context.Background(), cfg, func(string) { t.Error("serve listened") })
	if err == nil || !strings.HasPrefix(err.Error(), "-follow requires -data-dir") {
		t.Fatalf("serve returned %v, want -follow requires -data-dir", err)
	}
}

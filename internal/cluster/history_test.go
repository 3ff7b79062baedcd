package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"desyncpfair/internal/client"
	"desyncpfair/internal/hop/hoptest"
	"desyncpfair/internal/model"
	"desyncpfair/internal/server"
)

// replayBytes is a tenant's whole ?from=0 dispatch replay as raw bytes.
func replayBytes(t *testing.T, base, tenant string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/tenants/" + tenant + "/dispatches?from=0&follow=false")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("replay from %s: HTTP %d, %v", base, resp.StatusCode, err)
	}
	return raw
}

// TestFollowerBootstrapFromSealedHistory: a leader whose snapshot names
// sealed history files (which exist only in the leader's data directory)
// must still bootstrap a follower. GET /v1/replication/snapshot inlines
// the history back into the payload, so Bootstrap and InstallSnapshot see
// the form they always saw; the follower then tails the journal past the
// snapshot and serves a ?from=0 replay byte-identical to the leader's —
// sealed prefix, inline tail and tailed records alike — and its own first
// compaction seals the history it was handed inline.
func TestFollowerBootstrapFromSealedHistory(t *testing.T) {
	ctx := context.Background()
	leaderDir := t.TempDir()
	// Sized by dispatches: a round below is 16 decisions in 18 journal
	// records (16 jobs, the advance, its dispatch digest), so the leader
	// compacts about every 57 rounds, and the compaction past round 256 —
	// the first with 4096 unsealed events — seals them.
	lsrv, err := server.Open(server.Options{DataDir: leaderDir, FsyncEvery: 1, SnapshotEvery: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer lsrv.Close()
	lh := hoptest.NewServer(lsrv.Handler())
	defer lh.Close()
	lhs := lh.URL
	c := client.New(lhs, nil)
	if _, err := c.CreateTenant(ctx, "long", 2, ""); err != nil {
		t.Fatal(err)
	}
	const tasks = 16
	jobs := make([]server.SubmitJobRequest, tasks)
	for i := range jobs {
		jobs[i].Task = fmt.Sprintf("t%d", i)
		if _, err := c.RegisterTask(ctx, "long", jobs[i].Task, model.W(1, 8)); err != nil {
			t.Fatal(err)
		}
	}
	round := func() {
		t.Helper()
		if _, err := c.SubmitJobs(ctx, "long", jobs); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AdvanceBy(ctx, "long", "8"); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 330; r++ { // 5280 dispatches: one 4096-event segment and change
		round()
	}
	sealed, _ := filepath.Glob(filepath.Join(leaderDir, "hist-*.ndjson"))
	if len(sealed) == 0 {
		t.Fatal("the leader sealed no history; the test would prove nothing")
	}

	followerDir := t.TempDir()
	fsrv, fhsrv, fol := openFollower(t, followerDir, lhs)
	defer fsrv.Close()
	defer fhsrv.Close()
	defer fol.Seal()
	if own, _ := filepath.Glob(filepath.Join(followerDir, "hist-*.ndjson")); len(own) == 0 {
		t.Fatal("the follower's boot compaction left the installed history inline")
	}
	for r := 0; r < 10; r++ { // and some traffic the follower only sees on the log stream
		round()
	}
	waitFor(t, 10*time.Second, "follower catch-up", func() bool {
		return replStatus(t, fhsrv.URL).AppliedLSN >= replStatus(t, lhs).DurableLSN
	})
	want := replayBytes(t, lhs, "long")
	if n := bytes.Count(want, []byte{'\n'}); n != 340*tasks {
		t.Fatalf("leader replays %d events, want %d", n, 340*tasks)
	}
	if got := replayBytes(t, fhsrv.URL, "long"); !bytes.Equal(got, want) {
		t.Fatalf("follower ?from=0 replay (%d bytes) differs from the leader's (%d bytes)", len(got), len(want))
	}
}

package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"desyncpfair/internal/client"
	"desyncpfair/internal/model"
	"desyncpfair/internal/server"
)

// TestBatchThroughFailoverByteIdentity drives keyed jobs:batch requests —
// each one journal record — through the whole replication path: a leader, a
// follower tailing it, that follower promoted, and a second follower
// bootstrapped from the promoted one. At every hop the tenant's ?from=0
// replay is byte-identical to the node it came from, the batch acked by the
// old leader is deduped whole by the new one, and a batch taken by the new
// leader reaches its own follower.
func TestBatchThroughFailoverByteIdentity(t *testing.T) {
	ctx := context.Background()
	lsrv, lhs := openLeader(t, t.TempDir(), nil)
	defer lhs.Close()
	defer lsrv.Close()
	lc := client.New(lhs.URL, nil)
	if _, err := lc.CreateTenant(ctx, "t", 2, ""); err != nil {
		t.Fatal(err)
	}
	tasks := []string{"a", "b", "c", "d"}
	for _, name := range tasks {
		if _, err := lc.RegisterTask(ctx, "t", name, model.W(1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	round := func(c *client.Client, r int) ([]server.SubmitJobRequest, server.SubmitJobsResponse) {
		t.Helper()
		var batch []server.SubmitJobRequest
		for _, name := range tasks {
			batch = append(batch, server.SubmitJobRequest{Task: name, Key: fmt.Sprintf("round-%d/%s", r, name)})
		}
		resp, err := c.SubmitJobs(ctx, "t", batch)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		return batch, resp
	}

	fsrv, fhs, _ := openFollower(t, t.TempDir(), lhs.URL)
	defer fhs.Close()
	defer fsrv.Close()
	var lastBatch []server.SubmitJobRequest
	var lastResp server.SubmitJobsResponse
	for r := 0; r < 5; r++ {
		if r > 0 {
			if _, err := lc.AdvanceBy(ctx, "t", "2"); err != nil {
				t.Fatal(err)
			}
		}
		lastBatch, lastResp = round(lc, r)
	}
	waitCaughtUp(t, fsrv, fhs.URL, lhs.URL)
	old := replayBytes(t, lhs.URL, "t")
	if got := replayBytes(t, fhs.URL, "t"); !bytes.Equal(got, old) || len(old) == 0 {
		t.Fatalf("follower ?from=0 replay: %d bytes, the leader's %d", len(got), len(old))
	}
	if h, _ := health(t, fhs.URL); h.ReplicationApplyErrors != 0 || h.ReplicationDispatchMismatches != 0 {
		t.Fatalf("follower /healthz: %+v", h)
	}

	// The leader dies; the follower takes over with the last batch still
	// pending, and the client that never saw its ack sends it again.
	lhs.CloseClientConnections()
	lhs.Close()
	lsrv.Close()
	fc := client.New(fhs.URL, nil)
	resp, err := http.Post(fhs.URL+"/v1/cluster/promote", "application/json", nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: %v, %v", resp, err)
	}
	resp.Body.Close()
	before, err := fc.Tenant(ctx, "t")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := fc.SubmitJobs(ctx, "t", lastBatch); err != nil || !reflect.DeepEqual(got, lastResp) {
		t.Fatalf("the acked batch retried on the promoted follower: %+v, %v; want the original %+v", got, err, lastResp)
	}
	if after, _ := fc.Tenant(ctx, "t"); after != before {
		t.Fatalf("the retried batch changed the tenant: %+v, was %+v", after, before)
	}

	// The new leader takes batches of its own, with a follower of its own.
	f2srv, f2hs, _ := openFollower(t, t.TempDir(), fhs.URL)
	defer f2hs.Close()
	defer f2srv.Close()
	for r := 5; r < 8; r++ {
		if _, err := fc.AdvanceBy(ctx, "t", "2"); err != nil {
			t.Fatal(err)
		}
		round(fc, r)
	}
	if _, err := fc.Drain(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, f2srv, f2hs.URL, fhs.URL)
	promoted := replayBytes(t, fhs.URL, "t")
	if !bytes.HasPrefix(promoted, old) || len(promoted) <= len(old) {
		t.Fatalf("the promoted follower's replay (%d bytes) does not continue the old leader's (%d bytes)", len(promoted), len(old))
	}
	if got := replayBytes(t, f2hs.URL, "t"); !bytes.Equal(got, promoted) {
		t.Fatalf("second follower ?from=0 replay: %d bytes, the promoted follower's %d", len(got), len(promoted))
	}
	info, err := fc.Tenant(ctx, "t")
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(8 * len(tasks)); info.Dispatches != want || info.Pending != 0 {
		t.Fatalf("after 8 batches and a drain: %d dispatches, %d pending; want %d, 0", info.Dispatches, info.Pending, want)
	}
	assertTardinessBound(t, info)
}

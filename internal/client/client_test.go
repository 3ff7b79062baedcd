package client_test

import (
	"context"
	"strings"
	"testing"

	"desyncpfair/internal/client"
	"desyncpfair/internal/hop/hoptest"
	"desyncpfair/internal/model"
	"desyncpfair/internal/server"
)

// TestSubmitJobsBatchRoundTrip pins the batch submit path end to end over
// the wire: an atomic accept, the per-job results, and all-or-nothing
// rejection when any job in the batch is invalid.
func TestSubmitJobsBatchRoundTrip(t *testing.T) {
	srv := server.New()
	ts := hoptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown()
	c := client.New(ts.URL, nil)
	ctx := context.Background()

	if _, err := c.CreateTenant(ctx, "acme", 2, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterTask(ctx, "acme", "web", model.W(1, 2)); err != nil {
		t.Fatal(err)
	}

	resp, err := c.SubmitJobs(ctx, "acme", []server.SubmitJobRequest{
		{Task: "web"}, {Task: "web"}, {Task: "web"},
	})
	if err != nil {
		t.Fatalf("SubmitJobs: %v", err)
	}
	if resp.Accepted != 3 || len(resp.Results) != 3 {
		t.Fatalf("accepted %d results %d, want 3/3", resp.Accepted, len(resp.Results))
	}
	// Each job releases E=1 subtask; the last result sees all three pending.
	if got := resp.Results[2].Pending; got != 3 {
		t.Fatalf("pending after batch = %d, want 3", got)
	}

	// One invalid job rejects the whole batch and leaves no state behind.
	before, err := c.Tenant(ctx, "acme")
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.SubmitJobs(ctx, "acme", []server.SubmitJobRequest{
		{Task: "web"}, {Task: "nope"},
	})
	if err == nil {
		t.Fatal("batch with unknown task accepted")
	}
	if !strings.Contains(err.Error(), "job 1") {
		t.Fatalf("error %q does not name the offending job", err)
	}
	after, err := c.Tenant(ctx, "acme")
	if err != nil {
		t.Fatal(err)
	}
	if before.Pending != after.Pending {
		t.Fatalf("rejected batch changed pending: %d → %d", before.Pending, after.Pending)
	}

	// An empty batch is a client error, not a no-op 2xx.
	if _, err := c.SubmitJobs(ctx, "acme", nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

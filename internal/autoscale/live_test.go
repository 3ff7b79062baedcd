package autoscale_test

import (
	"context"
	"testing"
	"time"

	"desyncpfair/internal/autoscale"
	"desyncpfair/internal/client"
	"desyncpfair/internal/hop/hoptest"
	"desyncpfair/internal/model"
	"desyncpfair/internal/server"
)

// TestScalerAgainstLiveServer closes the real loop: the scaler scrapes a
// live pfaird /metrics exposition (not a synthetic one), reassembles the
// per-tenant lag histogram through the obs parser, and drives the actual
// resize endpoint. An idle tenant on 3 processors is walked down to
// MinM=1 one drain-mode shrink at a time, and never below.
func TestScalerAgainstLiveServer(t *testing.T) {
	srv := server.New()
	hts := hoptest.NewServer(srv.Handler())
	defer hts.Close()
	defer srv.Shutdown()
	cl := client.New(hts.URL, nil)
	ctx := context.Background()

	if _, err := cl.CreateTenant(ctx, "T", 3, ""); err != nil {
		t.Fatalf("CreateTenant: %v", err)
	}
	if _, err := cl.RegisterTask(ctx, "T", "x", model.Weight{E: 1, P: 2}); err != nil {
		t.Fatalf("RegisterTask: %v", err)
	}
	if _, err := cl.SubmitJob(ctx, "T", "x", ""); err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if _, err := cl.Drain(ctx, "T"); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	s := autoscale.New(autoscale.Config{
		MinM: 1, MaxM: 8, HoldUp: 99, HoldDown: 1,
		Cooldown: time.Millisecond, Rate: 100, Burst: 10,
	}, cl)

	// Tick 1 establishes the baseline; each later tick sees an idle
	// window and sheds one processor, feasibly (Σwt = 1/2 ≤ every target).
	for i := 0; i < 5; i++ {
		if _, err := s.Tick(ctx); err != nil {
			t.Fatalf("Tick %d: %v", i, err)
		}
		time.Sleep(2 * time.Millisecond) // let the cooldown lapse
	}
	info, err := cl.Tenant(ctx, "T")
	if err != nil {
		t.Fatalf("Tenant: %v", err)
	}
	if info.M != 1 || info.PendingM != 0 {
		t.Fatalf("idle tenant scaled to M=%d PendingM=%d, want M=1 (MinM) applied", info.M, info.PendingM)
	}
}

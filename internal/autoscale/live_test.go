package autoscale_test

import (
	"context"
	"testing"
	"time"

	"desyncpfair/internal/autoscale"
	"desyncpfair/internal/client"
	"desyncpfair/internal/hop/hoptest"
	"desyncpfair/internal/model"
	"desyncpfair/internal/obs"
	"desyncpfair/internal/server"
)

// TestScalerAgainstLiveServer closes the real loop: the scaler scrapes a
// live pfaird /metrics exposition (not a synthetic one) through the
// client, reassembles the per-tenant lag histogram through the obs parser,
// and drives the actual resize endpoint. An idle tenant on 3 processors is
// walked down to MinM=1 one drain-mode shrink at a time, and never below.
// The scaler's clock is a fake one a tick moves past the cooldown, so the
// control loop runs at its constants without waiting them out.
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

	clock := obs.NewFake(time.Unix(1000, 0), 0)
	s := autoscale.NewFuncs(autoscale.Config{MinM: 1, MaxM: 8}, clock, cl.Metrics,
		func(ctx context.Context, tenant string, m int, drain bool) error {
			_, err := cl.Resize(ctx, tenant, m, drain)
			return err
		})

	// Tick 0 establishes the baseline; every later tick sees an idle
	// window, and every third past the cooldown sheds one processor,
	// feasibly (Σwt = 1/2 ≤ every target).
	var shrinks []int
	for i := 0; i < 12; i++ {
		rep, err := s.Tick(ctx)
		if err != nil {
			t.Fatalf("Tick %d: %v", i, err)
		}
		for _, a := range rep.Actions {
			if a.Err != nil || !a.Drain {
				t.Fatalf("Tick %d: %+v, want a drain-mode shrink", i, a)
			}
			shrinks = append(shrinks, a.Target)
		}
		clock.Advance(11 * time.Second)
	}
	info, err := cl.Tenant(ctx, "T")
	if err != nil {
		t.Fatalf("Tenant: %v", err)
	}
	if len(shrinks) != 2 || shrinks[0] != 2 || shrinks[1] != 1 || info.M != 1 || info.PendingM != 0 {
		t.Fatalf("idle tenant shrunk to %v, M=%d PendingM=%d; want 2 then 1, M=1 (MinM) applied", shrinks, info.M, info.PendingM)
	}
}

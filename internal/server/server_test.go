package server_test

// External test package: it drives the server through internal/client so
// the wire protocol is exercised end to end (client → HTTP → server →
// executive), and so these tests double as client tests. (An internal
// test package would create an import cycle, since client imports server
// for the wire types.)

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"desyncpfair/internal/client"
	"desyncpfair/internal/hop/hoptest"
	"desyncpfair/internal/model"
	"desyncpfair/internal/online"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/server"
)

func newTestServer(t testing.TB) (*server.Server, *client.Client) {
	t.Helper()
	srv := server.New()
	hs := hoptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() { srv.Close() })
	return srv, client.New(hs.URL, nil)
}

func TestTenantLifecycle(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	info, err := c.CreateTenant(ctx, "acme", 2, "")
	if err != nil {
		t.Fatal(err)
	}
	if info.Policy != "PD2" || info.M != 2 || info.Now != "0" {
		t.Fatalf("unexpected tenant info %+v", info)
	}
	if _, err := c.CreateTenant(ctx, "acme", 1, ""); err == nil {
		t.Fatal("duplicate tenant accepted")
	}
	if _, err := c.CreateTenant(ctx, "bad", 0, ""); err == nil {
		t.Fatal("m=0 accepted")
	}
	if _, err := c.CreateTenant(ctx, "bad", 1, "LLF"); err == nil {
		t.Fatal("unknown policy accepted")
	}

	if _, err := c.RegisterTask(ctx, "acme", "web", model.W(1, 2)); err != nil {
		t.Fatal(err)
	}
	// Capacity exceeded: 1/2 + 2×1 > 2 on the third register.
	if _, err := c.RegisterTask(ctx, "acme", "big1", model.W(1, 1)); err != nil {
		t.Fatal(err)
	}
	_, err = c.RegisterTask(ctx, "acme", "big2", model.W(1, 1))
	if !client.IsReject(err) {
		t.Fatalf("want admission rejection, got %v", err)
	}

	if _, err := c.SubmitJob(ctx, "acme", "web", ""); err != nil {
		t.Fatal(err)
	}
	adv, err := c.Advance(ctx, "acme", "4")
	if err != nil {
		t.Fatal(err)
	}
	if adv.Now != "4" || adv.Dispatched != 1 {
		t.Fatalf("advance: %+v", adv)
	}
	if _, err := c.SubmitJob(ctx, "acme", "ghost", ""); err == nil {
		t.Fatal("job for unknown task accepted")
	}

	// Unregister frees capacity; big2-sized task fits afterwards.
	if err := c.UnregisterTask(ctx, "acme", "big1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterTask(ctx, "acme", "big2", model.W(1, 1)); err != nil {
		t.Fatalf("re-admission after unregister failed: %v", err)
	}

	info, err = c.Tenant(ctx, "acme")
	if err != nil {
		t.Fatal(err)
	}
	if info.Dispatches != 1 || info.Rejections != 1 {
		t.Fatalf("tenant info after workload: %+v", info)
	}

	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`pfaird_tenant_dispatches_total{tenant="acme"} 1`,
		`pfaird_tenant_admission_rejections_total{tenant="acme"} 1`,
		`pfaird_tenant_max_tardiness{tenant="acme"}`,
		`pfaird_requests_total{route="POST /v1/tenants/{id}/jobs"}`,
		`pfaird_request_duration_seconds_count`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	if err := c.DeleteTenant(ctx, "acme"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteTenant(ctx, "acme"); err == nil {
		t.Fatal("double delete accepted")
	}
	if _, err := c.Tenant(ctx, "acme"); err == nil {
		t.Fatal("deleted tenant still served")
	}
}

// A streamed dispatch sequence must match the same workload run on an
// in-process online.Executive decision for decision. The stream is opened
// in follow mode before any job is submitted, so it exercises the live
// push path, not just backlog replay.
func TestStreamMatchesInProcess(t *testing.T) {
	type op struct {
		task string // "" = advance instead of submit
		at   string
		to   string
	}
	weights := map[string]model.Weight{"a": model.W(1, 2), "b": model.W(3, 4), "c": model.W(1, 3)}
	names := []string{"a", "b", "c"} // registration order matters for tie-breaks
	script := []op{
		{task: "a", at: "0"}, {task: "b", at: "0"}, {to: "3"},
		{task: "c", at: "3"}, {to: "5"},
		{task: "a", at: "6"}, {task: "b", at: "7"}, {to: "12"},
		{task: "c", at: "12"}, {to: "20"},
	}

	// In-process reference run.
	ex := online.New(2, nil)
	tasks := map[string]*model.Task{}
	for _, n := range names {
		task, err := ex.Register(n, weights[n])
		if err != nil {
			t.Fatal(err)
		}
		tasks[n] = task
	}
	var want []server.DispatchEvent
	ex.SetOnDispatch(func(d online.Dispatch) {
		tard := d.Finish.Sub(rat.FromInt(d.Sub.Deadline()))
		if tard.Sign() < 0 {
			tard = rat.Zero
		}
		want = append(want, server.DispatchEvent{
			Seq: int64(len(want)), Task: d.Sub.Task.Name, Index: d.Sub.Index, Proc: d.Proc,
			Start: d.Start.String(), Finish: d.Finish.String(),
			Deadline: d.Sub.Deadline(), Tardiness: tard.String(),
		})
	})
	for _, o := range script {
		var err error
		if o.task != "" {
			at, perr := rat.Parse(o.at)
			if perr != nil {
				t.Fatal(perr)
			}
			err = ex.SubmitJob(tasks[o.task], at)
		} else {
			to, perr := rat.Parse(o.to)
			if perr != nil {
				t.Fatal(perr)
			}
			err = ex.Run(to, nil, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(want) == 0 {
		t.Fatal("reference run produced no dispatches; scripted workload is broken")
	}

	// Same workload over HTTP, with a live follower.
	_, c := newTestServer(t)
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, "ref", 2, "PD2"); err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if _, err := c.RegisterTask(ctx, "ref", n, weights[n]); err != nil {
			t.Fatal(err)
		}
	}
	stream, err := c.StreamDispatches(ctx, "ref", 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	got := make([]server.DispatchEvent, 0, len(want))
	done := make(chan error, 1)
	go func() {
		for len(got) < len(want) {
			ev, err := stream.Next()
			if err != nil {
				done <- fmt.Errorf("stream ended after %d of %d events: %w", len(got), len(want), err)
				return
			}
			got = append(got, ev)
		}
		done <- nil
	}()

	for _, o := range script {
		var err error
		if o.task != "" {
			_, err = c.SubmitJob(ctx, "ref", o.task, o.at)
		} else {
			_, err = c.Advance(ctx, "ref", o.to)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("stream delivered %d of %d events before timeout", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("decision %d differs:\n  http:       %+v\n  in-process: %+v", i, got[i], want[i])
		}
	}
}

// Eight concurrent clients hammer four tenants with interleaved register /
// submit / advance / status / stream / unregister traffic. Run under
// -race, this is the server's concurrency-safety test; the assertions
// check per-tenant dispatch conservation afterwards.
func TestConcurrentClients(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()

	const tenants = 4
	const clients = 8
	const iters = 40

	for i := 0; i < tenants; i++ {
		if _, err := c.CreateTenant(ctx, fmt.Sprintf("t%d", i), 2, ""); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", g%tenants)
			task := fmt.Sprintf("g%d", g)
			if _, err := c.RegisterTask(ctx, tenant, task, model.W(1, 8)); err != nil {
				errCh <- err
				return
			}
			for i := 0; i < iters; i++ {
				if _, err := c.SubmitJob(ctx, tenant, task, ""); err != nil {
					errCh <- fmt.Errorf("submit %s/%s: %w", tenant, task, err)
					return
				}
				if _, err := c.AdvanceBy(ctx, tenant, "1"); err != nil {
					errCh <- fmt.Errorf("advance %s: %w", tenant, err)
					return
				}
				switch i % 8 {
				case 3: // status read
					if _, err := c.Tenant(ctx, tenant); err != nil {
						errCh <- err
						return
					}
				case 5: // backlog stream read
					s, err := c.StreamDispatches(ctx, tenant, 0, false)
					if err != nil {
						errCh <- err
						return
					}
					prev := int64(-1)
					for {
						ev, err := s.Next()
						if err == io.EOF {
							break
						}
						if err != nil {
							errCh <- err
							s.Close()
							return
						}
						if ev.Seq != prev+1 {
							errCh <- fmt.Errorf("stream gap: %d after %d", ev.Seq, prev)
							s.Close()
							return
						}
						prev = ev.Seq
					}
					s.Close()
				case 7: // churn: admit and remove a side task with no work
					side := fmt.Sprintf("g%d-side%d", g, i)
					if _, err := c.RegisterTask(ctx, tenant, side, model.W(1, 16)); err != nil {
						errCh <- err
						return
					}
					if err := c.UnregisterTask(ctx, tenant, side); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Every tenant drained: dispatch log length equals total decisions and
	// Theorem 3 holds for each.
	for i := 0; i < tenants; i++ {
		id := fmt.Sprintf("t%d", i)
		if _, err := c.Drain(ctx, id); err != nil {
			t.Fatal(err)
		}
		info, err := c.Tenant(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Pending != 0 {
			t.Errorf("%s: %d pending after drain", id, info.Pending)
		}
		// 2 clients × iters jobs × 1 subtask each (E=1).
		if wantDisp := int64(2 * iters); info.Dispatches != wantDisp {
			t.Errorf("%s: %d dispatches, want %d", id, info.Dispatches, wantDisp)
		}
		maxTar, err := rat.Parse(info.MaxTardiness)
		if err != nil {
			t.Fatal(err)
		}
		if rat.One.Less(maxTar) {
			t.Errorf("%s: max tardiness %s > 1 — Theorem 3 violated", id, info.MaxTardiness)
		}
	}
}

// Graceful shutdown must drain in-flight streams: followers receive every
// logged decision and then clean EOF, rather than being cut mid-stream or
// hanging forever.
func TestShutdownDrainsStreams(t *testing.T) {
	srv, c := newTestServer(t)
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, "drain", 1, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterTask(ctx, "drain", "w", model.W(1, 2)); err != nil {
		t.Fatal(err)
	}
	stream, err := c.StreamDispatches(ctx, "drain", 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()

	const jobs = 5
	for i := 0; i < jobs; i++ {
		if _, err := c.SubmitJob(ctx, "drain", "w", ""); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AdvanceBy(ctx, "drain", "2"); err != nil {
			t.Fatal(err)
		}
	}
	srv.Shutdown()

	type tail struct {
		n   int
		err error
	}
	done := make(chan tail, 1)
	go func() {
		n := 0
		for {
			_, err := stream.Next()
			if err != nil {
				done <- tail{n, err}
				return
			}
			n++
		}
	}()
	select {
	case got := <-done:
		if got.err != io.EOF {
			t.Fatalf("stream ended with %v, want io.EOF", got.err)
		}
		if got.n != jobs {
			t.Fatalf("received %d events before shutdown EOF, want %d", got.n, jobs)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not terminate after Shutdown")
	}

	// A stream opened after shutdown replays the backlog and ends at once.
	late, err := c.StreamDispatches(ctx, "drain", 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	n := 0
	for {
		_, err := late.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != jobs {
		t.Fatalf("post-shutdown replay delivered %d events, want %d", n, jobs)
	}
}

// Deleting a tenant ends its followers with a full flush, like shutdown
// but scoped to one tenant.
func TestDeleteTenantEndsStreams(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, "doomed", 1, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterTask(ctx, "doomed", "w", model.W(1, 2)); err != nil {
		t.Fatal(err)
	}
	stream, err := c.StreamDispatches(ctx, "doomed", 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	if _, err := c.SubmitJob(ctx, "doomed", "w", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Drain(ctx, "doomed"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteTenant(ctx, "doomed"); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	got := make(chan error, 1)
	go func() {
		n := 0
		for {
			_, err := stream.Next()
			if err != nil {
				if n != 1 {
					err = fmt.Errorf("saw %d events before close, want 1 (then %w)", n, err)
				} else if err != io.EOF {
					err = fmt.Errorf("stream ended with %w, want io.EOF", err)
				} else {
					err = nil
				}
				got <- err
				return
			}
			n++
		}
	}()
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-deadline:
		t.Fatal("stream did not end after tenant deletion")
	}
}

// TestHealthzSaysWhetherAcksAreDurable: /healthz's durableAcks is true on
// a durable server whose every ack waits for its record's fsync
// (FsyncEvery 1, which 0 selects too), false on one that group-commits,
// and absent in memory, where nothing is journaled.
func TestHealthzSaysWhetherAcksAreDurable(t *testing.T) {
	if h, _ := healthz(t, server.New().Handler()); h.DurableAcks != nil {
		t.Fatalf("an in-memory server says durableAcks %v", *h.DurableAcks)
	}
	for _, c := range []struct {
		fsyncEvery int
		want       bool
	}{{1, true}, {0, true}, {8, false}} {
		srv, err := server.Open(server.Options{DataDir: t.TempDir(), FsyncEvery: c.fsyncEvery})
		if err != nil {
			t.Fatal(err)
		}
		h, _ := healthz(t, srv.Handler())
		srv.Close()
		if h.DurableAcks == nil || *h.DurableAcks != c.want {
			t.Fatalf("FsyncEvery %d: durableAcks %v, want %v", c.fsyncEvery, h.DurableAcks, c.want)
		}
	}
}

package cluster_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"desyncpfair/internal/client"
	"desyncpfair/internal/cluster"
	"desyncpfair/internal/hop/hoptest"
	"desyncpfair/internal/model"
	"desyncpfair/internal/server"
)

// BenchmarkRouterHop prices the proxy hop: the same two requests — a keyed
// single submit and an advance that dispatches 8 subtasks, the request shape
// of the benchmark's routed_replica workload — sent by internal/client to an
// in-memory pfaird directly and through a router in front of it, all three on
// httptest listeners in one process. routed minus direct is what the router
// costs a request. Only the named request is timed: the submit row advances,
// and the advance row releases its 8 jobs, with the timer stopped.
func BenchmarkRouterHop(b *testing.B) {
	for _, routed := range []bool{false, true} {
		path := "direct"
		if routed {
			path = "routed"
		}
		for _, op := range []string{"submit", "advance"} {
			b.Run(path+"/"+op, func(b *testing.B) { benchRouterHop(b, routed, op == "submit") })
		}
	}
}

// TestRouterHopAllocs pins what one keyed submit allocates in the whole
// process — internal/client, the router, pfaird — counted as
// BenchmarkRouterHop's submit rows count it: the advance after every 8
// submits is not counted, and the first 8 submits warm the pools. The bounds
// are ≤, not =: counts move with the Go version.
func TestRouterHopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what a call allocates")
	}
	for _, tc := range []struct {
		path   string
		routed bool
		max    float64
	}{{"direct", false, 37}, {"routed", true, 67}} {
		t.Run(tc.path, func(t *testing.T) {
			c, batch := hopRig(t, tc.routed)
			ctx := context.Background()
			const rounds = 16
			var ms runtime.MemStats
			var mallocs uint64
			for i := 0; i < rounds*len(batch); i++ {
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				req := server.SubmitJobRequest{Task: batch[i%len(batch)].Task, Key: fmt.Sprintf("k%d", i)}
				if _, err := c.SubmitJobKeyed(ctx, "bench", req); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&ms)
				if i >= len(batch) {
					mallocs += ms.Mallocs - before
				}
				if i%len(batch) == len(batch)-1 {
					if _, err := c.AdvanceBy(ctx, "bench", "8"); err != nil {
						t.Fatal(err)
					}
				}
			}
			allocs := float64(mallocs) / float64((rounds-1)*len(batch))
			if allocs > tc.max {
				t.Errorf("a %s keyed submit allocates %.1f times, want ≤ %.0f", tc.path, allocs, tc.max)
			}
			t.Logf("%.1f allocations per %s submit", allocs, tc.path)
		})
	}
}

func benchRouterHop(b *testing.B, routed, timeSubmits bool) {
	c, batch := hopRig(b, routed)
	ctx := context.Background()
	tasks := len(batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if timeSubmits {
			req := server.SubmitJobRequest{Task: batch[i%tasks].Task, Key: fmt.Sprintf("k%d", i)}
			if _, err := c.SubmitJobKeyed(ctx, "bench", req); err != nil {
				b.Fatal(err)
			}
			if i%tasks == tasks-1 {
				b.StopTimer()
				if _, err := c.AdvanceBy(ctx, "bench", "8"); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			continue
		}
		b.StopTimer()
		if _, err := c.SubmitJobs(ctx, "bench", batch); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := c.AdvanceBy(ctx, "bench", "8"); err != nil {
			b.Fatal(err)
		}
	}
}

// hopRig serves an in-memory pfaird on a hoptest listener, and with routed a
// router on another in front of it, and returns a client of the front with a
// tenant of 8 tasks of weight 1/8 on one processor: a job each per 8 slots
// is exactly full utilisation, so the backlog stays at one round. batch
// holds one job of each task.
func hopRig(tb testing.TB, routed bool) (c *client.Client, batch []server.SubmitJobRequest) {
	srv := server.New()
	tb.Cleanup(srv.Shutdown)
	backend := hoptest.NewServer(srv.Handler())
	tb.Cleanup(backend.Close)
	c = client.New(backend.URL, nil)
	if routed {
		router, err := cluster.NewRouter(cluster.RouterOptions{Groups: [][]string{{backend.URL}}})
		if err != nil {
			tb.Fatal(err)
		}
		router.Start()
		tb.Cleanup(router.Close)
		rhs := hoptest.NewServer(router.Handler())
		tb.Cleanup(rhs.Close)
		c = client.New(rhs.URL, nil)
	}
	ctx := context.Background()
	const tasks = 8
	if _, err := c.CreateTenant(ctx, "bench", 1, ""); err != nil {
		tb.Fatal(err) // through the router this waits for its first probe round
	}
	batch = make([]server.SubmitJobRequest, tasks)
	for i := range batch {
		batch[i].Task = fmt.Sprintf("t%d", i)
		if _, err := c.RegisterTask(ctx, "bench", batch[i].Task, model.W(1, tasks)); err != nil {
			tb.Fatal(err)
		}
	}
	return c, batch
}

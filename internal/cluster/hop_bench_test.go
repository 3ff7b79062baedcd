package cluster_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"desyncpfair/internal/client"
	"desyncpfair/internal/cluster"
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

func benchRouterHop(b *testing.B, routed, timeSubmits bool) {
	srv := server.New()
	defer srv.Shutdown()
	backend := httptest.NewServer(srv.Handler())
	defer backend.Close()
	c := client.New(backend.URL, backend.Client())
	if routed {
		router, err := cluster.NewRouter(cluster.RouterOptions{Groups: [][]string{{backend.URL}}})
		if err != nil {
			b.Fatal(err)
		}
		router.Start()
		defer router.Close()
		rhs := httptest.NewServer(router.Handler())
		defer rhs.Close()
		c = client.New(rhs.URL, rhs.Client())
	}
	ctx := context.Background()

	// 8 tasks of weight 1/8 on one processor: a job each per 8 slots is
	// exactly full utilisation, so the backlog stays at one round.
	const tasks = 8
	if _, err := c.CreateTenant(ctx, "bench", 1, ""); err != nil {
		b.Fatal(err) // through the router this waits for its first probe round
	}
	batch := make([]server.SubmitJobRequest, tasks)
	for i := range batch {
		batch[i].Task = fmt.Sprintf("t%d", i)
		if _, err := c.RegisterTask(ctx, "bench", batch[i].Task, model.W(1, tasks)); err != nil {
			b.Fatal(err)
		}
	}

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

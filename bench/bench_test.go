package main

import (
	"context"
	"io"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"

	"desyncpfair/internal/cluster"
	"desyncpfair/internal/server"
)

// inprocLauncher stands in for the real binaries: the same server and
// router packages behind httptest listeners, so `go test` needs no build
// step and stays fast.
type inprocLauncher struct{}

func (inprocLauncher) pfaird(spec serverSpec) (*node, error) {
	srv := server.New()
	var follower *cluster.Follower
	if spec.dataDir != "" {
		if spec.follow != "" {
			if err := cluster.Bootstrap(spec.dataDir, spec.follow, nil, nil); err != nil {
				return nil, err
			}
		}
		var err error
		srv, err = server.Open(server.Options{
			DataDir:       spec.dataDir,
			FsyncEvery:    defaultFsyncEvery,
			FsyncMaxDelay: defaultFsyncMaxDelay,
			SnapshotEvery: spec.snapshotEvery,
			Follower:      spec.follow != "",
		})
		if err != nil {
			return nil, err
		}
		if spec.follow != "" {
			follower = cluster.StartFollower(srv, spec.follow, nil)
		}
	}
	ts := httptest.NewServer(srv.Handler())
	return &node{url: ts.URL, cmdline: "in-process pfaird", dataDir: spec.dataDir, kill: func() {
		// A crash, not a shutdown: no final snapshot, the journal is
		// simply abandoned.
		if follower != nil {
			_ = follower.Seal()
		}
		srv.Shutdown() // ends the streams, which ts.Close would wait for
		ts.CloseClientConnections()
		ts.Close()
	}}, nil
}

func (inprocLauncher) router(backends string) (*node, error) {
	groups, err := cluster.ParseGroups(backends)
	if err != nil {
		return nil, err
	}
	pol, err := cluster.PolicyByName("rendezvous")
	if err != nil {
		return nil, err
	}
	r, err := cluster.NewRouter(cluster.RouterOptions{
		Groups:         groups,
		Policy:         pol,
		HealthInterval: 20 * time.Millisecond,
		FailoverAfter:  100 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	r.Start()
	ts := httptest.NewServer(r.Handler())
	return &node{url: ts.URL, cmdline: "in-process pfair-router", kill: func() {
		ts.CloseClientConnections()
		ts.Close()
		r.Close()
	}}, nil
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload, untraced and traced, at about 1/200 of
// the benchmark's scale against in-process servers. It asserts no timing:
// only that the output checks pass and that every workload and metric
// BENCHMARK.json names is emitted, once, with its unit.
func TestSmoke(t *testing.T) {
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloadNames))
	}
	for _, defs := range [][]metricDef{bf.EndToEnd, bf.PerLayer} {
		for _, d := range defs {
			if !nameRE.MatchString(d.Name) {
				t.Errorf("metric name %q does not match %s", d.Name, nameRE)
			}
			if d.Unit == "" || units[d.Name] != d.Unit {
				t.Errorf("metric %s: BENCHMARK.json says unit %q, the benchmark prints %q", d.Name, d.Unit, units[d.Name])
			}
		}
	}
	ctx := context.Background()
	for i, wl := range bf.Workloads {
		if wl.Name != workloadNames[i] || !nameRE.MatchString(wl.Name) {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, wl.Name, workloadNames[i])
		}
		for trace, defs := range [][]metricDef{bf.EndToEnd, bf.PerLayer} {
			cfg := config{seed: 7, seconds: baseSeconds / 200.0, trace: trace, workDir: t.TempDir()}
			ps, err := measure(ctx, inprocLauncher{}, cfg, wl.Name)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", wl.Name, trace, err)
			}
			if ps.failed != 0 {
				t.Errorf("%s trace=%d: %d of %d failed: %s", wl.Name, trace, ps.failed, ps.attempted, ps.describeErrors(5))
			}
			line, missing := report(io.Discard, wl.Name, ps, defs, trace == 0)
			if len(missing) > 0 {
				t.Errorf("%s trace=%d: not emitted: %v", wl.Name, trace, missing)
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics emitted, BENCHMARK.json names %d", wl.Name, trace, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				if mv, ok := line.Metrics[d.Name]; !ok || mv.Unit != d.Unit {
					t.Errorf("%s trace=%d: metric %s emitted as %+v (present=%v), want unit %q", wl.Name, trace, d.Name, mv, ok, d.Unit)
				}
			}
		}
	}
}

// TestFailedCheckFailsTheRun corrupts one expected dispatch count and
// expects the run to come back incorrect, which is what makes the command
// exit non-zero.
func TestFailedCheckFailsTheRun(t *testing.T) {
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	wrongBy = 1
	defer func() { wrongBy = 0 }()
	cfg := config{seed: 7, seconds: baseSeconds / 200.0, workDir: t.TempDir()}
	ps, err := measure(context.Background(), inprocLauncher{}, cfg, "submit_churn")
	if err != nil {
		t.Fatal(err)
	}
	line, _ := report(io.Discard, "submit_churn", ps, bf.EndToEnd, true)
	if line.Correct || line.Failed == 0 {
		t.Fatalf("corrupted expectation went unnoticed: %+v", line)
	}
	if ps.m["failed_share"] <= 0 {
		t.Fatalf("failed_share = %v, want > 0", ps.m["failed_share"])
	}
}

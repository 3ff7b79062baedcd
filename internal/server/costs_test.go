package server_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"desyncpfair/internal/faultfs"
	"desyncpfair/internal/server"
)

// TestCostsGolden renders testdata/costs.golden: counts of the work the
// in-process analogues of the benchmark's workloads make the service do.
// A count is exact and the host cannot move it, so each row is pinned
// exactly, where a timed row would need a gate wide enough to hide the
// change it is there to show. A change that moves a row regenerates the
// file (`go test ./internal/server -run CostsGolden -update`) and says why.
//
//   - long_tenant: one durable tenant at pfaird's defaults — FsyncEvery 64,
//     SnapshotEvery 4096 and a history segment of 4096 events — fed 16-job
//     batches of 16 tasks of weight 1/8 on M = 2, each with an advance by 8,
//     for 10⁵ decisions: the bytes written per 10³ decisions (everything
//     the journal, the compactions and the history files wrote after the
//     setup), the size of snapshot.json after the last compaction, and the
//     history files the data dir holds.
//   - wide_sched: the bytes an in-memory tenant's cold dispatch log holds
//     after 160 wide_sched rounds (wideRounds: 20 480 decisions, one closed
//     chunk and the open tail) — its compact records and nothing else. It
//     moves only when the record's format or the decisions do.
func TestCostsGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# workload     count                                  value\n")
	row := func(workload, count string, v int64) { fmt.Fprintf(&b, "%-14s %-38s %d\n", workload, count, v) }

	written, snapshot, files := longTenantCosts(t, 100_000)
	row("long_tenant", "bytes written per 10^3 dispatches", written)
	row("long_tenant", "snapshot.json bytes, last compaction", snapshot)
	row("long_tenant", "hist files per 10^5 dispatches", files)

	const rounds = 160
	tn, batches := wideRounds(t)
	defer tn.Close()
	for i := 0; i < rounds; i++ {
		wideRound(t, tn, batches, i)
	}
	if n := tn.Info().Dispatches; n != 128*rounds {
		t.Fatalf("%d wide_sched decisions, want %d", n, 128*rounds)
	}
	row("wide_sched", "resident bytes after 160 rounds", tn.ResidentBytes())

	got := b.String()
	golden := filepath.Join("testdata", "costs.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("counted costs drifted from %s:\n got:\n%s want:\n%s", golden, got, want)
	}
}

// longTenantCosts runs TestCostsGolden's long_tenant script for dispatches
// decisions and returns its three counts. The idle flush is off
// (FsyncMaxDelay -1), so nothing but the script decides what is written.
func longTenantCosts(t *testing.T, dispatches int) (writtenPer1e3, snapshot, filesPer1e5 int64) {
	defer server.SetHistSegmentMin(4096)()
	const tasks, period = 16, 8
	dir := t.TempDir()
	ffs := faultfs.New(faultfs.Options{}) // no faults: it counts the bytes written
	srv, err := server.Open(server.Options{DataDir: dir, FS: ffs, FsyncEvery: 64, FsyncMaxDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	must := func(c cmd) {
		t.Helper()
		if code := doCmd(t, h, c); code >= 300 {
			t.Fatalf("%s %s: %d", c.method, c.path, code)
		}
	}
	must(cmd{"POST", "/v1/tenants", server.CreateTenantRequest{ID: "long", M: 2}})
	var batch server.SubmitJobsRequest
	for i := 0; i < tasks; i++ {
		name := fmt.Sprintf("t%d", i)
		must(cmd{"POST", "/v1/tenants/long/tasks", server.RegisterTaskRequest{Name: name, E: 1, P: period}})
		batch.Jobs = append(batch.Jobs, server.SubmitJobRequest{Task: name})
	}
	before := ffs.BytesWritten()
	for r := 0; r < dispatches/tasks; r++ {
		must(cmd{"POST", "/v1/tenants/long/jobs:batch", batch})
		must(cmd{"POST", "/v1/tenants/long/advance", server.AdvanceRequest{By: fmt.Sprint(period)}})
	}
	if n := srv.Tenant("long").Info().Dispatches; n != int64(dispatches) {
		t.Fatalf("%d decisions, want %d", n, dispatches)
	}
	_, snapshot = readSnapshot(t, dir)
	n := int64(dispatches)
	return (ffs.BytesWritten() - before) * 1000 / n, snapshot, int64(len(histFiles(t, dir))) * 100_000 / n
}

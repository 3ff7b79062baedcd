package server_test

// Tests of the fuzzy checkpoint: a compaction reads the journal's cut, then
// images each tenant on the tenant's own loop, at or past the cut, and
// stops no request while it does.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"desyncpfair/internal/server"
	"desyncpfair/internal/wal"
)

// guard is how long these tests wait for something before they call it a
// hang: it turns a hang into a failure, and bounds no latency.
const guard = 10 * time.Second

// waitFor polls cond until it holds, failing after guard.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(guard)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// answer runs c on h in the background; the channel yields its status.
func answer(t *testing.T, h http.Handler, c cmd) <-chan int {
	ch := make(chan int, 1)
	go func() { ch <- doCmd(t, h, c) }()
	return ch
}

// within waits for what ch yields, failing after guard.
func within[T any](t *testing.T, what string, ch <-chan T) (v T) {
	t.Helper()
	select {
	case v = <-ch:
	case <-time.After(guard):
		t.Fatalf("%s: no answer", what)
	}
	return v
}

// compactInBackground starts a compaction; the channel yields its error.
func compactInBackground(srv *server.Server) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- srv.Compact() }()
	return ch
}

// twoTenants opens a durable server at FsyncEvery 1 with tenants A and B,
// each with one task x of weight 1/2.
func twoTenants(t *testing.T, snapshotEvery int) (*server.Server, http.Handler) {
	t.Helper()
	srv, err := server.Open(server.Options{DataDir: t.TempDir(), FsyncEvery: 1, FsyncMaxDelay: -1, SnapshotEvery: snapshotEvery})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	for _, c := range []cmd{
		{"POST", "/v1/tenants", server.CreateTenantRequest{ID: "A", M: 2}},
		{"POST", "/v1/tenants", server.CreateTenantRequest{ID: "B", M: 2}},
		{"POST", "/v1/tenants/A/tasks", server.RegisterTaskRequest{Name: "x", E: 1, P: 2}},
		{"POST", "/v1/tenants/B/tasks", server.RegisterTaskRequest{Name: "x", E: 1, P: 2}},
	} {
		if code := doCmd(t, h, c); code >= 300 {
			t.Fatalf("%s %s: %d", c.method, c.path, code)
		}
	}
	return srv, h
}

var submitA = cmd{"POST", "/v1/tenants/A/jobs", server.SubmitJobRequest{Task: "x"}}

// TestSubmitBesideParkedCheckpoint: a compaction whose checkpoint of tenant
// B waits behind B's loop stops no request of tenant A. A submit that does
// not itself make a snapshot due is acknowledged — durably, at FsyncEvery
// 1 — while the compaction still waits on B.
func TestSubmitBesideParkedCheckpoint(t *testing.T) {
	srv, h := twoTenants(t, 1<<30)
	defer srv.Close()
	b := srv.Tenant("B")
	release := b.HoldLoop()
	defer release()

	compacted := compactInBackground(srv)
	waitFor(t, "the compaction's checkpoint of B to queue", func() bool { return b.Queued() == 1 })
	before := srv.WALStats()
	if code := within(t, "a submit to A beside the parked checkpoint", answer(t, h, submitA)); code != http.StatusAccepted {
		t.Fatalf("submit to A: %d", code)
	}
	if st := srv.WALStats(); st.Appends != before.Appends+1 || st.Unsynced != 0 {
		t.Fatalf("the acknowledged submit left %d of %d new records unsynced", st.Unsynced, st.Appends-before.Appends)
	}
	select {
	case err := <-compacted:
		t.Fatalf("the compaction finished (%v) with B's loop still held", err)
	default:
	}
	release()
	if err := within(t, "the compaction", compacted); err != nil {
		t.Fatal(err)
	}
}

// TestDueCompactionRunsOnce: a request that finds the snapshot due while a
// compaction runs neither waits for it nor repeats it. The request that
// made it due compacts, parked behind tenant B's loop; one more submit to A
// is acknowledged meanwhile, and the crossing writes exactly one snapshot.
func TestDueCompactionRunsOnce(t *testing.T) {
	// Two creates and two registrations since the boot snapshot: the second
	// submit below is the sixth record, which makes the snapshot due.
	srv, h := twoTenants(t, 6)
	defer srv.Close()
	if code := doCmd(t, h, submitA); code != http.StatusAccepted {
		t.Fatalf("submit to A: %d", code)
	}
	b := srv.Tenant("B")
	release := b.HoldLoop()
	defer release()
	snaps := srv.WALStats().Snapshots

	crossing := answer(t, h, submitA)
	waitFor(t, "the due compaction's checkpoint of B to queue", func() bool { return b.Queued() == 1 })
	if code := within(t, "a submit to A while the due compaction waits on B", answer(t, h, submitA)); code != http.StatusAccepted {
		t.Fatalf("submit to A: %d", code)
	}
	select {
	case code := <-crossing:
		t.Fatalf("the request that made the snapshot due answered %d before its compaction could finish", code)
	default:
	}
	release()
	if code := within(t, "the request that made the snapshot due", crossing); code != http.StatusAccepted {
		t.Fatalf("crossing submit: %d", code)
	}
	if got := srv.WALStats().Snapshots; got != snaps+1 {
		t.Fatalf("one threshold crossing wrote %d snapshots, want 1", got-snaps)
	}
}

// TestFuzzyCheckpointRecoversExactly drives records into every gap a fuzzy
// checkpoint leaves: B journals a batch and an advance between the cut and
// its own checkpoint (its loop parked behind them), A decides after its
// checkpoint — appending to the history file the snapshot names, past the
// length it names, then creating one — and C is deleted and created anew
// before its checkpoint, which images the deleted one. Then:
//
//   - a crash (the data dir as it stands) recovers the reference state,
//     every tenant's ?from=0 bytes, and the exact command count, with no
//     replay error and no mismatch: nothing the checkpoints reflect is
//     applied twice, nothing after them is lost;
//   - a follower that bootstraps from that snapshot and tails the journal
//     from its cut reaches the leader's state and bytes, all records clean;
//   - the history file sealed beside the compaction survives it.
func TestFuzzyCheckpointRecoversExactly(t *testing.T) {
	dir := t.TempDir()
	leader, err := server.Open(server.Options{DataDir: dir, FsyncEvery: 1, FsyncMaxDelay: -1, SnapshotEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	lh := leader.Handler()
	ref := server.New()
	defer ref.Close()
	commands := 0
	// on applies c to h, and counts it as weight commands (a batch as its
	// jobs).
	on := func(h http.Handler, c cmd, weight int) {
		t.Helper()
		if code := doCmd(t, h, c); code >= 300 {
			t.Fatalf("%s %s: %d", c.method, c.path, code)
		}
		if h == lh {
			commands += weight
		}
	}
	// run applies c to the leader and the reference alike.
	run := func(c cmd, weight int) {
		t.Helper()
		on(lh, c, weight)
		on(ref.Handler(), c, weight)
	}
	batch := func(id string, tasks ...string) (cmd, int) {
		var req server.SubmitJobsRequest
		for _, n := range tasks {
			req.Jobs = append(req.Jobs, server.SubmitJobRequest{Task: n})
		}
		return cmd{"POST", "/v1/tenants/" + id + "/jobs:batch", req}, len(tasks)
	}
	advance := func(id string) cmd {
		return cmd{"POST", "/v1/tenants/" + id + "/advance", server.AdvanceRequest{By: "2"}}
	}
	create := func(id string, m int, tasks ...string) {
		run(cmd{"POST", "/v1/tenants", server.CreateTenantRequest{ID: id, M: m}}, 1)
		for _, n := range tasks {
			run(cmd{"POST", "/v1/tenants/" + id + "/tasks", server.RegisterTaskRequest{Name: n, E: 1, P: 2}}, 1)
		}
	}
	round := func(id string, tasks ...string) {
		run(batch(id, tasks...))
		run(advance(id), 1)
	}
	for _, id := range []string{"A", "B", "C"} {
		create(id, 2, "x", "y")
	}
	for r := 0; r < 3; r++ {
		for _, id := range []string{"A", "B", "C"} {
			round(id, "x", "y")
		}
	}

	b := leader.Tenant("B")
	release := b.HoldLoop()
	defer release()
	bBatch, bJobs := batch("B", "x", "y")
	queued := []cmd{bBatch, advance("B")}
	var answers []<-chan int
	for i, c := range queued {
		answers = append(answers, answer(t, lh, c))
		waitFor(t, "B's queued command", func() bool { return b.Queued() == i+1 })
	}
	compacted := compactInBackground(leader)
	waitFor(t, "the compaction's checkpoint of B to queue", func() bool { return b.Queued() == len(queued)+1 })

	// The cut is read and A checkpointed, which sealed A's six decisions into
	// a new open segment. Eight more unsealed decisions are appended to it
	// and close it (settle, at the test's 8-event segment), and eight more
	// create a history file.
	histBefore := histFiles(t, dir)
	for r := 0; r < 8; r++ {
		round("A", "x", "y")
	}
	var sealed []string
	for f := range histFiles(t, dir) {
		if !histBefore[f] {
			sealed = append(sealed, f)
		}
	}
	if len(sealed) == 0 {
		t.Fatal("A sealed no history file beside the compaction: the test would prove nothing")
	}
	run(cmd{"DELETE", "/v1/tenants/C", nil}, 1)
	create("C", 1, "z")
	round("C", "z")

	release()
	for i, ch := range answers {
		if code := within(t, "B's queued command", ch); code >= 300 {
			t.Fatalf("B's queued command %d: %d", i, code)
		}
	}
	on(ref.Handler(), bBatch, bJobs)
	on(ref.Handler(), advance("B"), 1)
	commands += bJobs + 1
	if err := within(t, "the compaction", compacted); err != nil {
		t.Fatal(err)
	}
	for _, f := range sealed {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("the compaction removed %s, sealed beside it: %v", f, err)
		}
	}
	snap, _ := readSnapshot(t, dir)
	for _, tn := range snap.Payload.Tenants {
		if tn.ID == "B" && tn.LSN <= snap.LSN {
			t.Fatalf("B's checkpoint reflects LSN %d, not past the cut at %d: the test would prove nothing", tn.LSN, snap.LSN)
		}
	}
	round("B", "x", "y")
	want := captureState(t, ref.Handler())
	assertStateEqual(t, "leader vs reference", captureState(t, lh), want)

	// A crash: the data dir as it stands — at FsyncEvery 1 every
	// acknowledged record is on disk.
	crashed := t.TempDir()
	copyDir(t, dir, crashed)
	srv, err := server.Open(server.Options{DataDir: crashed, FsyncEvery: 1, FsyncMaxDelay: -1, SnapshotEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if rec := srv.Recovery(); rec.ReplayErrors != 0 || rec.DispatchMismatches != 0 || rec.Commands != uint64(commands) {
		t.Fatalf("recovery: %d replay errors, %d dispatch mismatches, %d commands; want 0, 0, %d",
			rec.ReplayErrors, rec.DispatchMismatches, rec.Commands, commands)
	}
	assertStateEqual(t, "recovered vs reference", captureState(t, srv.Handler()), want)
	for id := range want.Infos {
		if string(dispatchBytes(t, srv.Handler(), id)) != string(dispatchBytes(t, lh, id)) {
			t.Fatalf("tenant %s: recovered ?from=0 replay differs from the leader's", id)
		}
	}

	// A follower bootstraps from the fuzzy snapshot and tails from its cut.
	rw := httptest.NewRecorder()
	lh.ServeHTTP(rw, httptest.NewRequest("GET", "/v1/replication/snapshot", nil))
	var boot server.ReplSnapshotResponse
	if err := json.Unmarshal(rw.Body.Bytes(), &boot); err != nil || boot.LSN != snap.LSN {
		t.Fatalf("replication snapshot at LSN %d (%v), want the fuzzy one at %d", boot.LSN, err, snap.LSN)
	}
	fdir := t.TempDir()
	l, _, err := wal.Open(fdir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.InstallSnapshot(boot.Payload, boot.LSN, boot.Term); err != nil {
		t.Fatal(err)
	}
	l.Close()
	follower, err := server.Open(server.Options{DataDir: fdir, Follower: true, FsyncEvery: 1, FsyncMaxDelay: -1, SnapshotEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	for _, r := range replicationLogFrom(t, lh, boot.LSN+1) {
		if err := follower.ApplyReplicated(r); err != nil {
			t.Fatalf("record %d (%s): %v", r.LSN, r.Op, err)
		}
	}
	follower.SetCaughtUp()
	fh := follower.Handler()
	if h, _ := healthz(t, fh); h.ReplicationApplyErrors != 0 || h.ReplicationDispatchMismatches != 0 {
		t.Fatalf("follower: %d apply errors, %d dispatch mismatches", h.ReplicationApplyErrors, h.ReplicationDispatchMismatches)
	}
	assertStateEqual(t, "follower vs reference", captureState(t, fh), want)
	for id := range want.Infos {
		if string(dispatchBytes(t, fh, id)) != string(dispatchBytes(t, lh, id)) {
			t.Fatalf("tenant %s: follower ?from=0 replay differs from the leader's", id)
		}
	}
}

// TestCompactionDrainsQueuedDelete: a compaction's checkpoint of a busy
// tenant takes its place in the tenant's queue like any command. With B's
// drainer held, a delete of B queues before the checkpoint or after it.
// Released, the compaction completes: in the second order it is B's
// drainer and runs the delete, whose journal step takes the registry lock
// while the compaction holds compactMu. The delete answers 204, and the
// server and a crash copy of its data dir both hold the reference state.
func TestCompactionDrainsQueuedDelete(t *testing.T) {
	for _, deleteFirst := range []bool{true, false} {
		name := "delete-after-checkpoint"
		if deleteFirst {
			name = "delete-before-checkpoint"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			opts := server.Options{DataDir: dir, FsyncEvery: 1, FsyncMaxDelay: -1, SnapshotEvery: 1 << 30}
			leader, err := server.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer leader.Close()
			lh := leader.Handler()
			ref := server.New()
			defer ref.Close()
			run := func(c cmd) {
				t.Helper()
				for _, h := range []http.Handler{lh, ref.Handler()} {
					if code := doCmd(t, h, c); code >= 300 {
						t.Fatalf("%s %s: %d", c.method, c.path, code)
					}
				}
			}
			round := func(id string) {
				run(cmd{"POST", "/v1/tenants/" + id + "/jobs", server.SubmitJobRequest{Task: "x"}})
				run(cmd{"POST", "/v1/tenants/" + id + "/advance", server.AdvanceRequest{By: "2"}})
			}
			for _, id := range []string{"A", "B"} {
				run(cmd{"POST", "/v1/tenants", server.CreateTenantRequest{ID: id, M: 2}})
				run(cmd{"POST", "/v1/tenants/" + id + "/tasks", server.RegisterTaskRequest{Name: "x", E: 1, P: 2}})
				for r := 0; r < 3; r++ {
					round(id)
				}
			}

			b := leader.Tenant("B")
			release := b.HoldLoop()
			defer release()
			del := cmd{"DELETE", "/v1/tenants/B", nil}
			var deleted <-chan int
			var compacted <-chan error
			if deleteFirst {
				deleted = answer(t, lh, del)
				waitFor(t, "the delete to queue", func() bool { return b.Queued() == 1 })
				compacted = compactInBackground(leader)
				waitFor(t, "the checkpoint to queue behind the delete", func() bool { return b.Queued() == 2 })
			} else {
				compacted = compactInBackground(leader)
				waitFor(t, "the checkpoint to queue", func() bool { return b.Queued() == 1 })
				deleted = answer(t, lh, del)
				waitFor(t, "the delete to queue behind the checkpoint", func() bool { return b.Queued() == 2 })
			}
			release()
			if code := within(t, "the queued delete", deleted); code != http.StatusNoContent {
				t.Fatalf("queued delete: %d, want 204", code)
			}
			if err := within(t, "the compaction", compacted); err != nil {
				t.Fatal(err)
			}
			if code := doCmd(t, ref.Handler(), del); code != http.StatusNoContent {
				t.Fatalf("reference delete: %d", code)
			}
			round("A")
			want := captureState(t, ref.Handler())
			assertStateEqual(t, "leader vs reference", captureState(t, lh), want)

			crashed := t.TempDir()
			copyDir(t, dir, crashed)
			opts.DataDir = crashed
			srv, err := server.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			if rec := srv.Recovery(); rec.ReplayErrors != 0 || rec.DispatchMismatches != 0 || rec.Tenants != 1 {
				t.Fatalf("recovery: %d replay errors, %d dispatch mismatches, %d tenants; want 0, 0, 1",
					rec.ReplayErrors, rec.DispatchMismatches, rec.Tenants)
			}
			assertStateEqual(t, "recovered vs reference", captureState(t, srv.Handler()), want)
		})
	}
}

package server_test

// Tests of the open history segment: a tenant appends each seal to its
// last history file until that holds a segment's worth (TestMain: 8
// events), so the file can be longer than what a snapshot, or a reader's
// view, names; and a failed append closes it.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"desyncpfair/internal/faultfs"
	"desyncpfair/internal/server"
)

// segmentRig drives one durable server and an in-memory reference through
// one script: tenant A on M = 2 with tasks x and y of weight 1/2, and
// rounds of a batch of one job each plus an advance by 2 — two decisions a
// round. It counts the commands the durable server applied.
type segmentRig struct {
	t        *testing.T
	srv, ref *server.Server
	commands int
}

func newSegmentRig(t *testing.T, o server.Options) *segmentRig {
	t.Helper()
	srv, err := server.Open(o)
	if err != nil {
		t.Fatal(err)
	}
	r := &segmentRig{t: t, srv: srv, ref: server.New()}
	t.Cleanup(func() { r.srv.Close(); r.ref.Close() })
	r.run(cmd{"POST", "/v1/tenants", server.CreateTenantRequest{ID: "A", M: 2}}, 1)
	for _, n := range []string{"x", "y"} {
		r.run(cmd{"POST", "/v1/tenants/A/tasks", server.RegisterTaskRequest{Name: n, E: 1, P: 2}}, 1)
	}
	return r
}

// run applies c to both servers and counts it as weight commands.
func (r *segmentRig) run(c cmd, weight int) {
	r.t.Helper()
	for _, s := range []*server.Server{r.srv, r.ref} {
		if code := doCmd(r.t, s.Handler(), c); code >= 300 {
			r.t.Fatalf("%s %s: %d", c.method, c.path, code)
		}
	}
	r.commands += weight
}

// rounds runs n rounds of two decisions each.
func (r *segmentRig) rounds(n int) {
	r.t.Helper()
	batch := server.SubmitJobsRequest{Jobs: []server.SubmitJobRequest{{Task: "x"}, {Task: "y"}}}
	for range n {
		r.run(cmd{"POST", "/v1/tenants/A/jobs:batch", batch}, 2)
		r.run(cmd{"POST", "/v1/tenants/A/advance", server.AdvanceRequest{By: "2"}}, 1)
	}
}

// sealed is tenant A's count of sealed events.
func (r *segmentRig) sealed() int64 {
	return metricValue(r.t, r.srv.Handler(), "pfaird_tenant_history_sealed_events", "tenant", "A")
}

// fileSize is the length of the file called name in dir.
func fileSize(t *testing.T, dir, name string) int64 {
	t.Helper()
	st, err := os.Stat(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestRecoveryReadsNamedPrefixOfGrownSegment: a compaction's checkpoint
// seals A's six decisions into a new open segment, and the snapshot names
// it at that length; then A's settle appends eight more to the same file.
// A crash there recovers from a file longer than its manifest entry: the
// recovered ?from=0 bytes and command count equal the reference's, with no
// replay error or mismatch, and the restored tenant, which no longer knows
// the file's length, seals what it replays into a new file.
func TestRecoveryReadsNamedPrefixOfGrownSegment(t *testing.T) {
	dir := t.TempDir()
	r := newSegmentRig(t, server.Options{DataDir: dir, FsyncEvery: 1, FsyncMaxDelay: -1, SnapshotEvery: 1 << 30})
	r.rounds(3)
	if err := r.srv.Compact(); err != nil {
		t.Fatal(err)
	}
	snap, _ := readSnapshot(t, dir)
	named := snap.Payload.Tenants[0].History
	if len(named) != 1 || named[0].Count != 6 {
		t.Fatalf("the compaction named %+v, want one segment of the 6 decisions", named)
	}
	r.rounds(4)
	if got := fileSize(t, dir, named[0].File); r.sealed() != 14 || len(histFiles(t, dir)) != 1 || got <= named[0].Bytes {
		t.Fatalf("%d events sealed in %d files, the named one %d bytes long, %d named: the test would prove nothing",
			r.sealed(), len(histFiles(t, dir)), got, named[0].Bytes)
	}

	crashed := t.TempDir()
	copyDir(t, dir, crashed)
	srv, err := server.Open(server.Options{DataDir: crashed, FsyncEvery: 1, FsyncMaxDelay: -1, SnapshotEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if rec := srv.Recovery(); rec.ReplayErrors != 0 || rec.DispatchMismatches != 0 || rec.Commands != uint64(r.commands) {
		t.Fatalf("recovery: %d replay errors, %d dispatch mismatches, %d commands; want 0, 0, %d",
			rec.ReplayErrors, rec.DispatchMismatches, rec.Commands, r.commands)
	}
	want := dispatchBytes(t, r.ref.Handler(), "A")
	for name, h := range map[string]*server.Server{"live": r.srv, "recovered": srv} {
		if got := dispatchBytes(t, h.Handler(), "A"); !bytes.Equal(got, want) {
			t.Fatalf("%s ?from=0: %d bytes, the reference %d", name, len(got), len(want))
		}
	}
	snap, _ = readSnapshot(t, crashed)
	boot := snap.Payload.Tenants[0].History
	if len(boot) != 2 || boot[0] != named[0] || boot[1].File == named[0].File || boot[1].Count != 8 {
		t.Fatalf("the boot snapshot names %+v, want %+v and a new file of the 8 replayed decisions", boot, named[0])
	}
	if got := fileSize(t, crashed, named[0].File); got != fileSize(t, dir, named[0].File) {
		t.Fatalf("recovery changed the grown file: %d bytes, %d before", got, fileSize(t, dir, named[0].File))
	}
}

// TestFailedAppendClosesSegment: the fsync of an append to A's open
// segment fails (faultfs FailSyncAt, under both crash models). The seal
// fails and leaves the log as it was; the segment is closed, so the next
// seal creates a new file instead of appending to one whose length is no
// longer known. Nothing is lost: the manifest names the first file at its
// old length, the new one from where it ends, and ?from=0 equals the
// reference's, live and after a restart.
func TestFailedAppendClosesSegment(t *testing.T) {
	for _, powerLoss := range []bool{false, true} {
		t.Run(fmt.Sprintf("powerloss=%v", powerLoss), func(t *testing.T) {
			// The journal never syncs by itself (FsyncEvery far above the
			// script), so the first Sync after the compaction is the append's.
			open := func(dir string, ffs *faultfs.FS) *segmentRig {
				r := newSegmentRig(t, server.Options{DataDir: dir, FS: ffs, FsyncEvery: 1 << 20, FsyncMaxDelay: -1, SnapshotEvery: 1 << 30})
				r.rounds(3)
				if err := r.srv.Compact(); err != nil {
					t.Fatal(err)
				}
				return r
			}
			dry := faultfs.New(faultfs.Options{})
			open(t.TempDir(), dry)
			failAt := dry.Syncs() + 1

			dir := t.TempDir()
			ffs := faultfs.New(faultfs.Options{FailSyncAt: failAt, PowerLoss: powerLoss})
			r := open(dir, ffs)
			snap, _ := readSnapshot(t, dir)
			first := snap.Payload.Tenants[0].History
			if len(first) != 1 || first[0].Count != 6 {
				t.Fatalf("the compaction named %+v, want one segment of the 6 decisions", first)
			}
			r.rounds(4)
			if ffs.Syncs() < failAt || r.sealed() != 6 || r.srv.Tenant("A").ResidentEvents() != 8 {
				t.Fatalf("%d syncs (the %dth fails), %d events sealed, %d resident: the seal did not fail, the test would prove nothing",
					ffs.Syncs(), failAt, r.sealed(), r.srv.Tenant("A").ResidentEvents())
			}
			r.rounds(1)
			if err := r.srv.Compact(); err != nil {
				t.Fatal(err)
			}
			snap, _ = readSnapshot(t, dir)
			hist := snap.Payload.Tenants[0].History
			if len(hist) != 2 || hist[0] != first[0] || hist[1].File == first[0].File || hist[1].Count != 10 {
				t.Fatalf("after the failed append the manifest is %+v, want %+v and a new file of the 10 decisions since", hist, first[0])
			}
			want := dispatchBytes(t, r.ref.Handler(), "A")
			if got := dispatchBytes(t, r.srv.Handler(), "A"); !bytes.Equal(got, want) {
				t.Fatalf("?from=0: %d bytes, the reference %d", len(got), len(want))
			}
			if err := r.srv.Close(); err != nil {
				t.Fatal(err)
			}
			srv, err := server.Open(server.Options{DataDir: dir, FsyncMaxDelay: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			if rec := srv.Recovery(); rec.ReplayErrors != 0 || rec.DispatchMismatches != 0 || rec.Commands != uint64(r.commands) {
				t.Fatalf("reopen: %d replay errors, %d dispatch mismatches, %d commands; want 0, 0, %d",
					rec.ReplayErrors, rec.DispatchMismatches, rec.Commands, r.commands)
			}
			if got := dispatchBytes(t, srv.Handler(), "A"); !bytes.Equal(got, want) {
				t.Fatalf("?from=0 after a restart: %d bytes, the reference %d", len(got), len(want))
			}
		})
	}
}

// TestStreamViewOlderThanItsSegment: a stream's drain reads through the
// view of the log it loaded, and the tenant may append to the view's last
// history file meanwhile. Held across such an append, the view still
// serves byte for byte the frames it holds — each file only as far as its
// manifest names it, the rest from its own resident chunks.
func TestStreamViewOlderThanItsSegment(t *testing.T) {
	dir := t.TempDir()
	r := newSegmentRig(t, server.Options{DataDir: dir, FsyncEvery: 1, FsyncMaxDelay: -1, SnapshotEvery: 1 << 30})
	r.rounds(3)
	if err := r.srv.Compact(); err != nil {
		t.Fatal(err)
	}
	r.rounds(2)
	replay := r.srv.HoldDispatchView("A")
	r.rounds(2)
	if r.sealed() != 14 || len(histFiles(t, dir)) != 1 {
		t.Fatalf("%d events sealed in %d files, want 14 in the one the view names: the test would prove nothing",
			r.sealed(), len(histFiles(t, dir)))
	}
	got, err := replay()
	if err != nil {
		t.Fatal(err)
	}
	all := dispatchBytes(t, r.srv.Handler(), "A")
	want := all[:len(all)-len(bytes.SplitAfterN(all, []byte{'\n'}, 11)[10])] // the view's 10 frames
	if !bytes.Equal(got, want) {
		t.Fatalf("the held view served %d bytes, want the %d of its 10 frames", len(got), len(want))
	}
}

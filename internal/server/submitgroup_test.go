package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"desyncpfair/internal/faultfs"
	"desyncpfair/internal/server"
	"desyncpfair/internal/wal"
)

// A submit group — a jobs:batch, or a run of coalesced single submits — is
// one journal record. These tests hold what follows from that: a crash
// keeps all of a batch or none of it, a journal that holds a group the old
// way (one flat record per job) still replays to the same state, and a
// batch too large for one frame is refused before anything is written.

// rawJSON is body as a client that escapes only what JSON requires sends it
// ('<' stays one byte; json.Marshal would write six).
func rawJSON(t testing.TB, body any) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(body); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// postJSON drives one request through the handler and returns its status and
// body.
func postJSON(t testing.TB, h http.Handler, path string, body any) (int, []byte) {
	t.Helper()
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("POST", path, bytes.NewReader(rawJSON(t, body))))
	return rw.Code, rw.Body.Bytes()
}

func tenantInfo(t testing.TB, h http.Handler, id string) server.TenantInfo {
	t.Helper()
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/v1/tenants/"+id, nil))
	var ti server.TenantInfo
	if err := json.Unmarshal(rw.Body.Bytes(), &ti); rw.Code != http.StatusOK || err != nil {
		t.Fatalf("GET tenant %s: %d %v", id, rw.Code, err)
	}
	return ti
}

// keyedBatch is the batch the torn-write sweeps send: four keyed jobs.
var keyedBatch = server.SubmitJobsRequest{Jobs: []server.SubmitJobRequest{
	{Task: "a", Key: "round-1/a"}, {Task: "b", Key: "round-1/b", Earliness: 1},
	{Task: "c", Key: "round-1/c"}, {Task: "d", Key: "round-1/d", At: "0"},
}}

var keyedBatchSetup = []cmd{
	{"POST", "/v1/tenants", server.CreateTenantRequest{ID: "T", M: 2}},
	{"POST", "/v1/tenants/T/tasks", server.RegisterTaskRequest{Name: "a", E: 1, P: 2}},
	{"POST", "/v1/tenants/T/tasks", server.RegisterTaskRequest{Name: "b", E: 1, P: 2}},
	{"POST", "/v1/tenants/T/tasks", server.RegisterTaskRequest{Name: "c", E: 1, P: 2}},
	{"POST", "/v1/tenants/T/tasks", server.RegisterTaskRequest{Name: "d", E: 1, P: 2}},
}

// TestTornBatchIsAllOrNothing crashes the filesystem at every byte of a
// four-job keyed batch's journal write. Whatever survived, the reopened
// tenant holds none of the jobs or all four — never one to three, which is
// what a group of per-job frames left behind — and the client's faithful
// retry, the identical batch, is accepted with the results the uncrashed
// run gave, and again from the idempotency memory when sent once more.
func TestTornBatchIsAllOrNothing(t *testing.T) {
	opts := func(dir string, ffs *faultfs.FS) server.Options {
		o := server.Options{DataDir: dir, FsyncEvery: 1, FsyncMaxDelay: -1, SnapshotEvery: 1 << 20}
		if ffs != nil {
			o.FS = ffs
		}
		return o
	}
	// The uncrashed run: the bytes the batch's journal write spans, and the
	// response every retry must reproduce.
	dry := faultfs.New(faultfs.Options{})
	srv, err := server.Open(opts(t.TempDir(), dry))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range keyedBatchSetup {
		if code := doCmd(t, srv.Handler(), c); code >= 300 {
			t.Fatalf("setup command %d: %d", i, code)
		}
	}
	lo := dry.BytesWritten()
	code, want := postJSON(t, srv.Handler(), "/v1/tenants/T/jobs:batch", keyedBatch)
	hi := dry.BytesWritten()
	srv.Close()
	if code != http.StatusAccepted || hi-lo < 64 {
		t.Fatalf("uncrashed batch: %d %s, %d journal bytes", code, want, hi-lo)
	}

	for k := lo; k < hi; k++ {
		dir := t.TempDir()
		ffs := faultfs.New(faultfs.Options{CrashAtByte: k})
		srvA, err := server.Open(opts(dir, ffs))
		if err != nil {
			t.Fatalf("byte %d: Open before the crash point: %v", k, err)
		}
		for i, c := range keyedBatchSetup {
			if code := doCmd(t, srvA.Handler(), c); code >= 300 {
				t.Fatalf("byte %d: setup command %d: %d", k, i, code)
			}
		}
		code, body := postJSON(t, srvA.Handler(), "/v1/tenants/T/jobs:batch", keyedBatch)
		_ = srvA.Close()
		if !ffs.Crashed() || code < 500 {
			t.Fatalf("byte %d: the batch answered %d %s, crashed=%v; want the crash inside its write", k, code, body, ffs.Crashed())
		}

		srvB, err := server.Open(opts(dir, nil))
		if err != nil {
			t.Fatalf("byte %d: recovery Open: %v", k, err)
		}
		if rec := srvB.Recovery(); rec.ReplayErrors != 0 || rec.DispatchMismatches != 0 {
			t.Fatalf("byte %d: recovery not clean: %+v", k, rec)
		}
		if p := tenantInfo(t, srvB.Handler(), "T").Pending; p != 0 && p != len(keyedBatch.Jobs) {
			t.Fatalf("byte %d of the batch's %d: the tenant recovered %d of %d jobs — a batch must be all or nothing on disk",
				k-lo, hi-lo, p, len(keyedBatch.Jobs))
		}
		for try := 0; try < 2; try++ {
			if code, got := postJSON(t, srvB.Handler(), "/v1/tenants/T/jobs:batch", keyedBatch); code != http.StatusAccepted || !bytes.Equal(got, want) {
				t.Fatalf("byte %d, retry %d: %d %s; want 202 %s", k-lo, try, code, got, want)
			}
		}
		if p := tenantInfo(t, srvB.Handler(), "T").Pending; p != len(keyedBatch.Jobs) {
			t.Fatalf("byte %d: %d jobs pending after the retries, want %d", k-lo, p, len(keyedBatch.Jobs))
		}
		srvB.Close()
	}
}

// unfoldJournal rewrites dir's journal into the form written before a group
// was one record: each group record becomes one flat job-submit frame per
// job, the group one AppendBatch. It returns the records it wrote, in order.
func unfoldJournal(t *testing.T, dir string) (flat []wal.Record, groups int) {
	t.Helper()
	segs := readJournal(t, dir)
	if len(segs) != 1 {
		t.Fatalf("%d journal segments, want 1", len(segs))
	}
	for seg, frames := range segs {
		if err := os.Remove(seg); err != nil {
			t.Fatal(err)
		}
		l, _, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			recs := []wal.Record{f.rec}
			if len(f.rec.Jobs) > 0 {
				groups++
				recs = recs[:0]
				for _, j := range f.rec.Jobs {
					recs = append(recs, wal.Record{Op: wal.OpJobSubmit, Tenant: f.rec.Tenant, Name: j.Name, At: j.At, Earliness: j.Earliness, Key: j.Key})
				}
			}
			if _, err := l.AppendBatch(recs); err != nil {
				t.Fatal(err)
			}
			flat = append(flat, recs...)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return flat, groups
}

// TestPerJobGroupJournalReplays: a journal in the form written before a
// group was one record replays to the same /v1/tenants, the same dispatch
// stream byte for byte and the same command count as the same jobs
// journaled today, and a follower shipped its frames ends up there too.
func TestPerJobGroupJournalReplays(t *testing.T) {
	const rounds = 6
	script := append([]cmd{}, keyedBatchSetup...)
	for r := 0; r < rounds; r++ {
		var batch server.SubmitJobsRequest
		for _, j := range keyedBatch.Jobs {
			j.Key, j.At = fmt.Sprintf("round-%d/%s", r, j.Task), ""
			batch.Jobs = append(batch.Jobs, j)
		}
		script = append(script,
			cmd{"POST", "/v1/tenants/T/jobs:batch", batch},
			cmd{"POST", "/v1/tenants/T/advance", server.AdvanceRequest{By: "2"}})
	}
	opts := func(dir string) server.Options {
		return server.Options{DataDir: dir, FsyncEvery: 1, FsyncMaxDelay: -1, SnapshotEvery: 1 << 20}
	}

	// Today's form: the directory of a running server, copied, is what a kill
	// would leave — an empty boot snapshot and the whole script in the journal.
	liveDir, newDir, oldDir := t.TempDir(), t.TempDir(), t.TempDir()
	live, err := server.Open(opts(liveDir))
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	for i, c := range script {
		if code := doCmd(t, live.Handler(), c); code >= 300 {
			t.Fatalf("command %d (%s %s): %d", i, c.method, c.path, code)
		}
	}
	copyDir(t, liveDir, newDir)
	copyDir(t, liveDir, oldDir)
	oldRecords, groups := unfoldJournal(t, oldDir)
	if groups != rounds {
		t.Fatalf("the journal holds %d group records, want one per batch (%d)", groups, rounds)
	}

	open := func(dir string) (*server.RecoveryInfo, serverState, []byte) {
		srv, err := server.Open(opts(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		rec := srv.Recovery()
		if rec.ReplayErrors != 0 || rec.DispatchMismatches != 0 {
			t.Fatalf("%s: recovery %+v", dir, rec)
		}
		return rec, captureState(t, srv.Handler()), dispatchBytes(t, srv.Handler(), "T")
	}
	newRec, newState, newStream := open(newDir)
	oldRec, oldState, oldStream := open(oldDir)
	assertStateEqual(t, "group journal vs the live server", newState, captureState(t, live.Handler()))
	assertStateEqual(t, "per-job journal vs group journal", oldState, newState)
	if !bytes.Equal(oldStream, newStream) || len(oldStream) == 0 {
		t.Fatalf("?from=0 replays differ: %d bytes from the per-job journal, %d from the group journal", len(oldStream), len(newStream))
	}
	jobs := len(keyedBatch.Jobs)
	if want := uint64(len(keyedBatchSetup) + rounds*(jobs+1)); oldRec.Commands != want || newRec.Commands != want ||
		oldRec.CommandsReplayed != int(want) || newRec.CommandsReplayed != int(want) {
		t.Fatalf("commands (replayed): per-job journal %d (%d), group journal %d (%d), want %d",
			oldRec.Commands, oldRec.CommandsReplayed, newRec.Commands, newRec.CommandsReplayed, want)
	}
	if oldRec.RecordsReplayed != len(oldRecords) || newRec.RecordsReplayed != len(oldRecords)-rounds*(jobs-1) {
		t.Fatalf("records replayed: %d from the per-job journal of %d, %d from the group journal", oldRec.RecordsReplayed, len(oldRecords), newRec.RecordsReplayed)
	}

	// A follower of a leader that still writes the old form is shipped that
	// journal's records one by one.
	fol, err := server.Open(server.Options{DataDir: t.TempDir(), FsyncEvery: 1, FsyncMaxDelay: -1, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	for _, r := range oldRecords {
		if err := fol.ApplyReplicated(r); err != nil {
			t.Fatalf("ApplyReplicated(%+v): %v", r, err)
		}
	}
	if h, _ := healthz(t, fol.Handler()); h.ReplicationApplyErrors != 0 || h.ReplicationDispatchMismatches != 0 {
		t.Fatalf("follower of the per-job journal: %+v", h)
	}
	assertStateEqual(t, "follower of the per-job journal", captureState(t, fol.Handler()), newState)
	if got := dispatchBytes(t, fol.Handler(), "T"); !bytes.Equal(got, newStream) {
		t.Fatal("the follower's ?from=0 replay differs from the leader's")
	}
}

// TestWorstBatchJournaledOrRefused sends a durable server the largest
// batches the API admits — MaxBatchJobs jobs with MaxKeyLen keys, then the
// same with task names that take the request, or the record, to the 1 MiB
// both are bounded by. A batch whose record fits a journal frame is
// journaled as that one frame; one whose record does not is refused 413
// with nothing appended. Either way the journal is not wedged, the server
// keeps taking writes, and a reopen finds exactly what was accepted.
func TestWorstBatchJournaledOrRefused(t *testing.T) {
	dir := t.TempDir()
	srv, err := server.Open(server.Options{DataDir: dir, FsyncEvery: 1, FsyncMaxDelay: -1, SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	// A fractional now makes every resolved arrival as long as the service
	// lets one be; the record carries it for each job, the request does not.
	const now = "268435455/65536"
	// Per job the request holds {"task":"…","key":"…"}, and the record
	// {"name":"…","at":"…","key":"…"},: sized per job so that MaxBatchJobs of
	// them come just under 1 MiB.
	perJob := server.MaxRequestBody/server.MaxBatchJobs - 2
	nearName := perJob - server.MaxKeyLen - len(`{"name":"","at":"`+now+`","key":""},`)
	tightName := perJob - server.MaxKeyLen - len(`{"task":"","key":""},`)
	cases := []struct {
		what, task string
		want       int
	}{
		{"short names", "w", http.StatusAccepted},
		{"record just under a frame", strings.Repeat("n", nearName), http.StatusAccepted},
		{"request just under its bound, record over", strings.Repeat("t", tightName), http.StatusRequestEntityTooLarge},
		{"names JSON writes six bytes a byte for", strings.Repeat("<", nearName), http.StatusRequestEntityTooLarge},
	}
	if code, body := postJSON(t, h, "/v1/tenants", server.CreateTenantRequest{ID: "big", M: 1}); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	for _, tc := range cases {
		if code, body := postJSON(t, h, "/v1/tenants/big/tasks", server.RegisterTaskRequest{Name: tc.task, E: 1, P: 4}); code != http.StatusCreated {
			t.Fatalf("register a %d-byte name: %d %.200s", len(tc.task), code, body)
		}
	}
	if code, body := postJSON(t, h, "/v1/tenants/big/advance", server.AdvanceRequest{Until: now}); code != http.StatusOK {
		t.Fatalf("advance: %d %s", code, body)
	}

	pending := 0
	for i, tc := range cases {
		var batch server.SubmitJobsRequest
		for j := 0; j < server.MaxBatchJobs; j++ {
			key := fmt.Sprintf("%d-%04d-", i, j)
			batch.Jobs = append(batch.Jobs, server.SubmitJobRequest{Task: tc.task, Key: key + strings.Repeat("k", server.MaxKeyLen-len(key))})
		}
		if raw := rawJSON(t, batch); len(raw) > server.MaxRequestBody {
			t.Fatalf("%s: the request is %d bytes, over the body bound: the test would not reach the journal", tc.what, len(raw))
		}
		before := srv.WALStats()
		code, body := postJSON(t, h, "/v1/tenants/big/jobs:batch", batch)
		after := srv.WALStats()
		if code != tc.want {
			t.Fatalf("%s: %d %.200s, want %d", tc.what, code, body, tc.want)
		}
		appended := after.Appends - before.Appends
		if code == http.StatusAccepted {
			pending += server.MaxBatchJobs
			if appended != 1 {
				t.Fatalf("%s: accepted with %d frames appended, want 1", tc.what, appended)
			}
		} else if appended != 0 {
			t.Fatalf("%s: refused %d after appending %d frames", tc.what, code, appended)
		}
		if after.Wedged || after.AppendErrors != before.AppendErrors {
			t.Fatalf("%s: journal wedged=%v, %d append errors", tc.what, after.Wedged, after.AppendErrors-before.AppendErrors)
		}
		if got := tenantInfo(t, h, "big").Pending; got != pending {
			t.Fatalf("%s: %d jobs pending, want %d", tc.what, got, pending)
		}
	}
	if code, body := postJSON(t, h, "/v1/tenants/big/jobs", server.SubmitJobRequest{Task: "w"}); code != http.StatusAccepted {
		t.Fatalf("submit after the large batches: %d %s", code, body)
	}
	want := captureState(t, h)
	crashed := t.TempDir()
	copyDir(t, dir, crashed)
	re, err := server.Open(server.Options{DataDir: crashed})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec := re.Recovery(); rec.ReplayErrors != 0 || rec.RecordsReplayed == 0 {
		t.Fatalf("reopen: %+v", rec)
	}
	assertStateEqual(t, "reopened after the large batches", captureState(t, re.Handler()), want)
}

// TestBatchRoundIsThreeRecords pins what a round of one batch and one
// advance costs the journal — three frames: the group, the advance, its
// digest — and what each threshold counts: FsyncEvery frames, so a sync
// covers seven or eight of them, two rounds and more; SnapshotEvery jobs,
// other commands and digests, so snapshots fall where the same jobs as
// flat records put them.
func TestBatchRoundIsThreeRecords(t *testing.T) {
	const tasks, fsyncEvery = 16, 7
	for _, tc := range []struct {
		snapshotEvery, rounds int
		snapshots             uint64
	}{
		{1 << 20, 14, 0},
		// 17 records in before the first round, then 16 and 2 a round: due
		// at the second round's batch (51) and again at the fourth's (36).
		{36, 4, 2},
	} {
		srv, err := server.Open(server.Options{DataDir: t.TempDir(), FsyncEvery: fsyncEvery, FsyncMaxDelay: -1, SnapshotEvery: tc.snapshotEvery})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		h := srv.Handler()
		if code, body := postJSON(t, h, "/v1/tenants", server.CreateTenantRequest{ID: "T", M: 2}); code != http.StatusCreated {
			t.Fatalf("create: %d %s", code, body)
		}
		var batch server.SubmitJobsRequest
		for i := 0; i < tasks; i++ {
			name := fmt.Sprintf("t%02d", i)
			if code, body := postJSON(t, h, "/v1/tenants/T/tasks", server.RegisterTaskRequest{Name: name, E: 1, P: 8}); code != http.StatusCreated {
				t.Fatalf("register: %d %s", code, body)
			}
			batch.Jobs = append(batch.Jobs, server.SubmitJobRequest{Task: name})
		}
		if err := srv.SyncJournal(); err != nil {
			t.Fatal(err)
		}
		start := srv.WALStats()
		for round := 1; round <= tc.rounds; round++ {
			for _, c := range []cmd{
				{"POST", "/v1/tenants/T/jobs:batch", batch},
				{"POST", "/v1/tenants/T/advance", server.AdvanceRequest{By: "8"}},
			} {
				if code := doCmd(t, h, c); code >= 300 {
					t.Fatalf("round %d: %s: %d", round, c.path, code)
				}
				if st := srv.WALStats(); st.Unsynced >= fsyncEvery {
					t.Fatalf("round %d: %d frames unsynced at an ack, want fewer than %d", round, st.Unsynced, fsyncEvery)
				}
			}
			if got := srv.WALStats().Appends - start.Appends; got != uint64(3*round) {
				t.Fatalf("after %d rounds the journal took %d frames, want %d", round, got, 3*round)
			}
		}
		st := srv.WALStats()
		if got := st.Snapshots - start.Snapshots; got != tc.snapshots {
			t.Fatalf("SnapshotEvery %d: %d snapshots in %d rounds, want %d", tc.snapshotEvery, got, tc.rounds, tc.snapshots)
		}
		if frames := uint64(3 * tc.rounds); tc.snapshots == 0 {
			if got := st.Fsyncs - start.Fsyncs; got < frames/(fsyncEvery+1) || got > frames/fsyncEvery {
				t.Fatalf("%d frames cost %d fsyncs at FsyncEvery %d, want one per %d or %d", frames, got, fsyncEvery, fsyncEvery, fsyncEvery+1)
			}
		}
	}
}

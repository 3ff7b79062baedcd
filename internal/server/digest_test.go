package server_test

// Tests of the journal's dispatch verification: a command that made
// decisions is followed by one digest record, replay checks what it
// regenerates against it, and a journal written before the digest — one
// record per decision — still verifies.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"desyncpfair/internal/server"
	"desyncpfair/internal/wal"
)

// healthz fetches and decodes /healthz.
func healthz(t testing.TB, h http.Handler) (server.HealthResponse, int) {
	t.Helper()
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/healthz", nil))
	var resp server.HealthResponse
	if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil {
		t.Fatalf("healthz body %q: %v", rw.Body.Bytes(), err)
	}
	return resp, rw.Code
}

// journalFrame is one frame of a WAL segment file, decoded.
type journalFrame struct {
	rec wal.Record
	raw []byte // the payload as it is on disk
}

// readJournal decodes every frame of every segment in dir, by segment file.
func readJournal(t testing.TB, dir string) map[string][]journalFrame {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]journalFrame{}
	for _, seg := range segs {
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		var frames []journalFrame
		for len(raw) > 0 {
			if len(raw) < 8 {
				t.Fatalf("%s: %d trailing bytes", seg, len(raw))
			}
			n, sum := binary.LittleEndian.Uint32(raw), binary.LittleEndian.Uint32(raw[4:])
			payload := raw[8 : 8+n]
			if crc32.ChecksumIEEE(payload) != sum {
				t.Fatalf("%s: frame CRC mismatch", seg)
			}
			var rec wal.Record
			if err := json.Unmarshal(payload, &rec); err != nil {
				t.Fatalf("%s: %v", seg, err)
			}
			frames = append(frames, journalFrame{rec, payload})
			raw = raw[8+n:]
		}
		out[seg] = frames
	}
	return out
}

// rewriteJournal rewrites one record of dir's journal — the first of its
// segment that edit changes (edit reports whether it did) — re-framing it
// with a valid length and CRC: damage only replay's own checks can see.
func rewriteJournal(t testing.TB, dir string, edit func(*wal.Record) bool) {
	t.Helper()
	for seg, frames := range readJournal(t, dir) {
		var out []byte
		edited := false
		for _, f := range frames {
			payload := f.raw
			if !edited && edit(&f.rec) {
				edited = true
				var err error
				if payload, err = json.Marshal(f.rec); err != nil {
					t.Fatal(err)
				}
			}
			var hdr [8]byte
			binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
			binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
			out = append(append(out, hdr[:]...), payload...)
		}
		if edited {
			if err := os.WriteFile(seg, out, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatal("no journal record to rewrite: the test would prove nothing")
}

// replicationLog returns a leader's whole journal as its replication stream
// serves it.
func replicationLog(t testing.TB, h http.Handler) []wal.Record {
	t.Helper()
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/v1/replication/log?from=1&follow=false", nil))
	if rw.Code != http.StatusOK {
		t.Fatalf("replication log: %d", rw.Code)
	}
	var recs []wal.Record
	sc := bufio.NewScanner(rw.Body)
	for sc.Scan() {
		var frame server.ReplFrame
		if err := json.Unmarshal(sc.Bytes(), &frame); err != nil {
			t.Fatal(err)
		}
		rec, err := frame.Verify()
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestRecoveryCountsTamperedJournal is the positive case of dispatch
// verification — every other test only ever sees it pass. One journal
// frame is rewritten with a valid frame CRC: a digest's checksum, a
// digest's count and — separately — the target of an advance, which makes
// replay decide differently from what the digests after it record. Each
// time recovery must count at least one mismatch, /healthz must say
// degraded, and the server must still come up: state served, the boot
// compaction done, the next boot clean.
func TestRecoveryCountsTamperedJournal(t *testing.T) {
	// Jobs of two subtasks with windows [0,2) and [2,4) after release: an
	// advance cut short dispatches one where the journal says two.
	script := []cmd{
		{"POST", "/v1/tenants", server.CreateTenantRequest{ID: "T", M: 1}},
		{"POST", "/v1/tenants/T/tasks", server.RegisterTaskRequest{Name: "a", E: 2, P: 4}},
	}
	for r := 0; r < 3; r++ {
		script = append(script,
			cmd{"POST", "/v1/tenants/T/jobs", server.SubmitJobRequest{Task: "a"}},
			cmd{"POST", "/v1/tenants/T/advance", server.AdvanceRequest{By: "4"}})
	}
	opts := func(dir string) server.Options {
		return server.Options{DataDir: dir, FsyncEvery: 1, FsyncMaxDelay: -1, SnapshotEvery: 1 << 30}
	}
	base := t.TempDir()
	srv, err := server.Open(opts(base))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range script {
		if code := doCmd(t, srv.Handler(), c); code >= 300 {
			t.Fatalf("command %d: %d", i, code)
		}
	}
	want := captureState(t, srv.Handler())
	// The directory as a crash would leave it: Close would fold the journal
	// into a snapshot.
	crashed := t.TempDir()
	copyDir(t, base, crashed)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		edit func(*wal.Record) bool
		// sameState: the damage is to a verification record only, so what
		// replay rebuilds is still what the live server held.
		sameState bool
	}{
		{"digest crc", func(r *wal.Record) bool {
			if r.Op != wal.OpDispatch {
				return false
			}
			r.CRC ^= 1
			return true
		}, true},
		{"digest count", func(r *wal.Record) bool {
			if r.Op != wal.OpDispatch {
				return false
			}
			r.Count++
			return true
		}, true},
		{"advance at", func(r *wal.Record) bool {
			if r.Op != wal.OpAdvance || r.At != "4" {
				return false
			}
			r.At = "1"
			return true
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, crashed, dir)
			rewriteJournal(t, dir, tc.edit)
			srv, err := server.Open(opts(dir))
			if err != nil {
				t.Fatalf("Open on a tampered journal: %v", err)
			}
			rec := srv.Recovery()
			if rec.DispatchMismatches < 1 || rec.ReplayErrors != 0 {
				t.Fatalf("recovery counted %d dispatch mismatches and %d replay errors, want ≥ 1 and 0", rec.DispatchMismatches, rec.ReplayErrors)
			}
			if h, code := healthz(t, srv.Handler()); h.Status != "degraded" || code != http.StatusOK {
				t.Fatalf("healthz says %q (HTTP %d), want degraded, served", h.Status, code)
			}
			got := captureState(t, srv.Handler())
			if tc.sameState {
				assertStateEqual(t, "state behind a damaged digest", got, want)
			} else if n := got.Infos["T"].Dispatches; n != want.Infos["T"].Dispatches {
				// Every subtask is still dispatched, only later.
				t.Fatalf("replay dispatched %d subtasks, the live server %d", n, want.Infos["T"].Dispatches)
			}
			if n := srv.WALStats().Snapshots; n != 1 {
				t.Fatalf("%d snapshots after Open, want the boot compaction's", n)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			srv, err = server.Open(opts(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			if rec := srv.Recovery(); rec.RecordsReplayed != 0 || rec.DispatchMismatches != 0 {
				t.Fatalf("the boot after replayed %d records with %d mismatches, want a compacted directory", rec.RecordsReplayed, rec.DispatchMismatches)
			}
			assertStateEqual(t, "state across the next boot", captureState(t, srv.Handler()), got)
		})
	}
}

// TestFollowerCompactionBeforeDigest ships a leader's journal through
// ApplyReplicated on a follower that compacts after every single record,
// with history sealed in 8-event segments (TestMain): a command's decisions
// are sealed into a file and dropped from memory before the digest that
// verifies them arrives. Two tenants' records interleave the way concurrent
// tenant loops leave them in a journal — each digest separated from its
// command by the other tenant's command — and twice the follower restarts
// in that gap. Verification must not need the frames resident: 0
// mismatches, 0 apply errors, a healthy /healthz, and ?from=0 replays
// byte-identical to the leader's.
func TestFollowerCompactionBeforeDigest(t *testing.T) {
	leader, err := server.Open(server.Options{DataDir: t.TempDir(), FsyncEvery: 1, FsyncMaxDelay: -1, SnapshotEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	lh := leader.Handler()
	must := func(c cmd) {
		t.Helper()
		if code := doCmd(t, lh, c); code >= 300 {
			t.Fatalf("%s %s: %d", c.method, c.path, code)
		}
	}
	tenants := []string{"X", "Y"}
	tasks := []string{"a", "b", "c", "d"}
	for _, id := range tenants {
		must(cmd{"POST", "/v1/tenants", server.CreateTenantRequest{ID: id, M: 2}})
		for _, n := range tasks {
			must(cmd{"POST", "/v1/tenants/" + id + "/tasks", server.RegisterTaskRequest{Name: n, E: 1, P: 2}})
		}
	}
	for r := 0; r < 12; r++ {
		for _, id := range tenants {
			var batch server.SubmitJobsRequest
			for _, n := range tasks {
				batch.Jobs = append(batch.Jobs, server.SubmitJobRequest{Task: n})
			}
			must(cmd{"POST", "/v1/tenants/" + id + "/jobs:batch", batch})
		}
		for _, id := range tenants {
			must(cmd{"POST", "/v1/tenants/" + id + "/advance", server.AdvanceRequest{By: "2"}})
		}
	}

	recs := replicationLog(t, lh)
	// X's advance, X's digest, Y's advance, Y's digest → both advances, then
	// both digests: only the order within a tenant is the journal's to keep.
	swaps := 0
	for i := 0; i+2 < len(recs); i++ {
		if recs[i].Op == wal.OpAdvance && recs[i+1].Op == wal.OpDispatch && recs[i+2].Op == wal.OpAdvance &&
			recs[i+1].Tenant == recs[i].Tenant && recs[i+2].Tenant != recs[i].Tenant {
			recs[i+1], recs[i+2] = recs[i+2], recs[i+1]
			swaps++
		}
	}
	if swaps < 12 {
		t.Fatalf("interleaved %d digests with the other tenant's command, want 12", swaps)
	}

	followerDir := t.TempDir()
	open := func() *server.Server {
		t.Helper()
		srv, err := server.Open(server.Options{DataDir: followerDir, Follower: true, FsyncEvery: 1, FsyncMaxDelay: -1, SnapshotEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		if rec := srv.Recovery(); rec.RecordsReplayed != 0 || rec.DispatchMismatches != 0 || rec.ReplayErrors != 0 {
			t.Fatalf("follower boot: %d records replayed, %d dispatch mismatches, %d replay errors", rec.RecordsReplayed, rec.DispatchMismatches, rec.ReplayErrors)
		}
		return srv
	}
	clean := func(srv *server.Server) {
		t.Helper()
		if h, _ := healthz(t, srv.Handler()); h.ReplicationDispatchMismatches != 0 || h.ReplicationApplyErrors != 0 {
			t.Fatalf("follower counts %d dispatch mismatches, %d apply errors", h.ReplicationDispatchMismatches, h.ReplicationApplyErrors)
		}
	}
	follower := open()
	defer func() { follower.Close() }()
	xDigests := 0
	for i, rec := range recs {
		rec.LSN = uint64(i + 1)
		if rec.Op == wal.OpDispatch && rec.Tenant == "X" {
			// Twice the follower restarts with both tenants' digests still
			// to come — from a snapshot taken between command and digest, so
			// the restored tenants hold no digest and the decisions are
			// checked where they lie: the 28 X has made by the first restart
			// leave 4 inline, its 32 by the second are all in files.
			if xDigests++; xDigests == 7 || xDigests == 8 {
				clean(follower)
				if err := follower.Close(); err != nil {
					t.Fatal(err)
				}
				follower = open()
			}
		}
		if err := follower.ApplyReplicated(rec); err != nil {
			t.Fatalf("record %d (%s): %v", rec.LSN, rec.Op, err)
		}
		before := follower.WALStats().Snapshots
		if follower.MaybeCompact(); follower.WALStats().Snapshots != before+1 {
			t.Fatalf("the follower did not compact after record %d", rec.LSN)
		}
	}
	follower.SetCaughtUp()
	fh := follower.Handler()
	for _, id := range tenants {
		if sealed := metricValue(t, fh, `pfaird_tenant_history_sealed_events{tenant="`+id+`"}`); sealed == 0 {
			t.Fatalf("the follower sealed none of tenant %s's history; the test would prove nothing", id)
		}
	}
	h, code := healthz(t, fh)
	if h.Status != "ok" || code != http.StatusOK || h.ReplicationDispatchMismatches != 0 || h.ReplicationApplyErrors != 0 {
		t.Fatalf("follower healthz: %q (HTTP %d), %d dispatch mismatches, %d apply errors; want ok, 0, 0",
			h.Status, code, h.ReplicationDispatchMismatches, h.ReplicationApplyErrors)
	}
	if n := metricValue(t, fh, "pfaird_replication_dispatch_mismatches_total") + metricValue(t, fh, "pfaird_replication_apply_errors_total"); n != 0 {
		t.Fatalf("/metrics counts %d replication apply faults", n)
	}
	for _, id := range tenants {
		if got, want := dispatchBytes(t, fh, id), dispatchBytes(t, lh, id); !bytes.Equal(got, want) || len(want) == 0 {
			t.Fatalf("tenant %s: follower ?from=0 replay (%d bytes) differs from the leader's (%d bytes)", id, len(got), len(want))
		}
	}

	// The same check can fail, and then it shows: a digest that does not
	// match is counted, exported, and degrades /healthz for good.
	bad := wal.Record{LSN: uint64(len(recs) + 1), Op: wal.OpDispatch, Tenant: "X", DSeq: 1 << 20, Count: 1, CRC: 7}
	if err := follower.ApplyReplicated(bad); err != nil {
		t.Fatal(err)
	}
	follower.SetReplicationError("") // what the tail loop does after every record
	if h, _ := healthz(t, fh); h.Status != "degraded" || h.ReplicationDispatchMismatches != 1 {
		t.Fatalf("after a bad digest healthz says %q with %d mismatches, want degraded, 1", h.Status, h.ReplicationDispatchMismatches)
	}
	if n := metricValue(t, fh, "pfaird_replication_dispatch_mismatches_total"); n != 1 {
		t.Fatalf("pfaird_replication_dispatch_mismatches_total = %d, want 1", n)
	}
}

// TestFollowerOfLegacyLeaderCompacts is the rolling upgrade's first half:
// an upgraded follower under a leader that still journals one dispatch
// record per decision. That form is checked against the frame in memory, so
// a follower that compacts between a command and its records can no longer
// check the ones it sealed — which is not a mismatch, and must not leave the
// follower degraded until it restarts. The ones still resident are checked,
// and a wrong one counts.
func TestFollowerOfLegacyLeaderCompacts(t *testing.T) {
	leader, err := server.Open(server.Options{DataDir: t.TempDir(), FsyncEvery: 1, FsyncMaxDelay: -1, SnapshotEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	lh := leader.Handler()
	script := []cmd{{"POST", "/v1/tenants", server.CreateTenantRequest{ID: "X", M: 2}}}
	var batch server.SubmitJobsRequest
	for _, n := range []string{"a", "b", "c", "d"} {
		script = append(script, cmd{"POST", "/v1/tenants/X/tasks", server.RegisterTaskRequest{Name: n, E: 1, P: 2}})
		batch.Jobs = append(batch.Jobs, server.SubmitJobRequest{Task: n})
	}
	for r := 0; r < 7; r++ { // 4 decisions a round: every second round's are sealed by the compaction behind its advance
		script = append(script, cmd{"POST", "/v1/tenants/X/jobs:batch", batch}, cmd{"POST", "/v1/tenants/X/advance", server.AdvanceRequest{By: "2"}})
	}
	for _, c := range script {
		if code := doCmd(t, lh, c); code >= 300 {
			t.Fatalf("%s %s: %d", c.method, c.path, code)
		}
	}
	var events []server.DispatchEvent
	for _, line := range bytes.Split(bytes.TrimSpace(dispatchBytes(t, lh, "X")), []byte("\n")) {
		var ev server.DispatchEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	// The journal an old leader would have written: each digest spelled out
	// as the per-decision records it replaced.
	var recs []wal.Record
	legacy := 0
	for _, rec := range replicationLog(t, lh) {
		if rec.Op != wal.OpDispatch {
			recs = append(recs, rec)
			continue
		}
		for _, ev := range events[rec.DSeq : rec.DSeq+rec.Count] {
			recs = append(recs, wal.Record{Op: wal.OpDispatch, Tenant: rec.Tenant, DSeq: ev.Seq, Name: ev.Task, Index: ev.Index, Finish: ev.Finish})
			legacy++
		}
	}
	if len(events) != 28 || legacy != 28 {
		t.Fatalf("%d decisions, %d per-decision records; want 28 of each", len(events), legacy)
	}

	follower, err := server.Open(server.Options{DataDir: t.TempDir(), Follower: true, FsyncEvery: 1, FsyncMaxDelay: -1, SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	lsn := uint64(0)
	apply := func(rec wal.Record) {
		t.Helper()
		lsn++
		rec.LSN = lsn
		if err := follower.ApplyReplicated(rec); err != nil {
			t.Fatalf("record %d (%s): %v", rec.LSN, rec.Op, err)
		}
		follower.MaybeCompact()
	}
	for _, rec := range recs {
		apply(rec)
	}
	follower.SetCaughtUp()
	fh := follower.Handler()
	if sealed := metricValue(t, fh, `pfaird_tenant_history_sealed_events{tenant="X"}`); sealed != 24 {
		t.Fatalf("the follower sealed %d events, want 24: the test would prove nothing", sealed)
	}
	if h, _ := healthz(t, fh); h.Status != "ok" || h.ReplicationDispatchMismatches != 0 || h.ReplicationApplyErrors != 0 {
		t.Fatalf("follower healthz: %q, %d dispatch mismatches, %d apply errors; want ok, 0, 0", h.Status, h.ReplicationDispatchMismatches, h.ReplicationApplyErrors)
	}
	if got, want := dispatchBytes(t, fh, "X"), dispatchBytes(t, lh, "X"); !bytes.Equal(got, want) {
		t.Fatal("follower ?from=0 replay differs from the leader's")
	}
	// Seq 27 is still in memory: a record that names another finish counts.
	last := events[27]
	apply(wal.Record{Op: wal.OpDispatch, Tenant: "X", DSeq: last.Seq, Name: last.Task, Index: last.Index, Finish: last.Finish + "0"})
	if h, _ := healthz(t, fh); h.Status != "degraded" || h.ReplicationDispatchMismatches != 1 {
		t.Fatalf("after a wrong per-decision record healthz says %q with %d mismatches, want degraded, 1", h.Status, h.ReplicationDispatchMismatches)
	}
}

// pr16Script is the load behind testdata/journal_pr16: every journaled op
// kind on three tenants (crashScript), then a keyed submit and a backlog
// left undispatched.
func pr16Script() []cmd {
	return append(crashScript(),
		cmd{"POST", "/v1/tenants/A/jobs", server.SubmitJobRequest{Task: "a1", Key: "tail-1"}},
		cmd{"POST", "/v1/tenants/A/jobs", server.SubmitJobRequest{Task: "a2"}},
		cmd{"POST", "/v1/tenants/A/jobs", server.SubmitJobRequest{Task: "a4", Earliness: 1}},
		cmd{"POST", "/v1/tenants/B/jobs", server.SubmitJobRequest{Task: "b1"}},
		cmd{"POST", "/v1/tenants/A/advance", server.AdvanceRequest{By: "3/2"}},
		cmd{"POST", "/v1/tenants/B/advance", server.AdvanceRequest{By: "1"}})
}

// TestRestoreParentFormatJournal opens a data directory the parent
// commit's code wrote — pr16Script driven into server.Open(FsyncEvery 1,
// SnapshotEvery 80) under this package's TestMain, the directory copied
// before Close: a snapshot, the history files it names, and a journal tail
// that holds one dispatch record per decision. It must replay clean, to the
// state and the ?from=0 bytes of an in-memory server fed the same script,
// and the boot compaction must fold the legacy records away; what the
// server journals from then on is digests.
func TestRestoreParentFormatJournal(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "journal_pr16"), dir)
	legacy, commands := 0, 0
	for _, frames := range readJournal(t, dir) {
		for _, f := range frames {
			switch {
			case f.rec.Op == wal.OpDispatch && f.rec.Count == 0 && f.rec.Finish != "":
				legacy++
			case f.rec.Op == wal.OpDispatch:
				t.Fatalf("testdata/journal_pr16 holds a dispatch record in another form: %s", f.raw)
			case f.rec.IsCommand():
				commands++
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); err != nil || legacy < 8 || commands < 8 {
		t.Fatalf("testdata/journal_pr16 is not a parent-format directory with a journal tail: snapshot %v, %d per-decision records, %d commands", err, legacy, commands)
	}

	ref := server.New()
	for i, c := range pr16Script() {
		if code := doCmd(t, ref.Handler(), c); code >= 300 {
			t.Fatalf("reference command %d (%s %s): %d", i, c.method, c.path, code)
		}
	}

	opts := server.Options{DataDir: dir, FsyncEvery: 1, FsyncMaxDelay: -1, SnapshotEvery: 1 << 30}
	srv, err := server.Open(opts)
	if err != nil {
		t.Fatalf("Open on a parent-format directory: %v", err)
	}
	rec := srv.Recovery()
	if rec.DispatchMismatches != 0 || rec.ReplayErrors != 0 || rec.RecordsReplayed != legacy+commands {
		t.Fatalf("recovery: %d dispatch mismatches, %d replay errors, %d of %d records replayed",
			rec.DispatchMismatches, rec.ReplayErrors, rec.RecordsReplayed, legacy+commands)
	}
	if h, _ := healthz(t, srv.Handler()); h.Status != "ok" {
		t.Fatalf("healthz says %q", h.Status)
	}
	want := captureState(t, ref.Handler())
	assertStateEqual(t, "replayed parent-format journal", captureState(t, srv.Handler()), want)
	for id := range want.Infos {
		if got, full := dispatchBytes(t, srv.Handler(), id), dispatchBytes(t, ref.Handler(), id); !bytes.Equal(got, full) {
			t.Fatalf("tenant %s: ?from=0 replay differs from the in-memory server's", id)
		}
	}
	for _, frames := range readJournal(t, dir) {
		if len(frames) != 0 {
			t.Fatalf("the boot compaction left %d journal records behind, the first %s", len(frames), frames[0].raw)
		}
	}
	assertNoOrphans(t, dir)

	// Both carry on identically; the new records are digests.
	more := []cmd{
		{"POST", "/v1/tenants/A/jobs", server.SubmitJobRequest{Task: "a1", Key: "tail-1"}}, // remembered: deduped
		{"POST", "/v1/tenants/A/jobs", server.SubmitJobRequest{Task: "a2"}},
		{"POST", "/v1/tenants/A/drain", nil},
		{"POST", "/v1/tenants/B/drain", nil},
	}
	for i, c := range more {
		if a, b := doCmd(t, ref.Handler(), c), doCmd(t, srv.Handler(), c); a != b || a >= 300 {
			t.Fatalf("continuation %d: in-memory %d, restored %d", i, a, b)
		}
	}
	digests := 0
	for _, frames := range readJournal(t, dir) {
		for _, f := range frames {
			if f.rec.Op == wal.OpDispatch {
				if f.rec.Count == 0 || f.rec.Finish != "" {
					t.Fatalf("a per-decision dispatch record was journaled: %s", f.raw)
				}
				digests++
			}
		}
	}
	if digests != 2 {
		t.Fatalf("two drains that dispatched journaled %d digests", digests)
	}
	crashed := t.TempDir()
	copyDir(t, dir, crashed)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	opts.DataDir = crashed
	srv, err = server.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if rec := srv.Recovery(); rec.DispatchMismatches != 0 || rec.ReplayErrors != 0 || rec.RecordsReplayed == 0 {
		t.Fatalf("recovery of the continued directory: %d dispatch mismatches, %d replay errors, %d records replayed",
			rec.DispatchMismatches, rec.ReplayErrors, rec.RecordsReplayed)
	}
	assertStateEqual(t, "continued directory after a crash", captureState(t, srv.Handler()), captureState(t, ref.Handler()))
}

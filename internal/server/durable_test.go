package server

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCompactAfterLoopsStopKeepsTenants runs Close's steps with one more
// compaction after the tenant loops have stopped — what a request's due
// snapshot does when it runs between that stop and the journal's close.
// That compaction images each stopped tenant where it stands, so its
// snapshot still holds every tenant and the journal it truncates loses
// nothing; and a stopped tenant with a segment's worth of unsealed
// decisions is sealed in place, the snapshot naming the file.
func TestCompactAfterLoopsStopKeepsTenants(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{DataDir: dir, FsyncEvery: 1, SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	unitTenant(t, s.Handler())
	// closeWithLateCompaction runs Close's steps — its own compaction
	// first, unless early is false — and one more compaction after the
	// tenant loops stop.
	closeWithLateCompaction := func(s *Server, early bool) {
		t.Helper()
		s.Shutdown()
		if early {
			if err := s.compact(); err != nil {
				t.Fatal(err)
			}
		}
		for _, tn := range s.allTenants() {
			tn.Close()
		}
		if err := s.compact(); err != nil {
			t.Fatalf("the compaction after the loops stopped: %v", err)
		}
		if err := s.wal.Close(); err != nil {
			t.Fatal(err)
		}
	}
	closeWithLateCompaction(s, true)
	s, err = Open(Options{DataDir: dir, FsyncEvery: 1, SnapshotEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if rec := s.Recovery(); rec.Tenants != 1 || rec.Commands != 2 {
		t.Fatalf("recovered %d tenants and %d commands, want 1 and 2", rec.Tenants, rec.Commands)
	}

	// Decisions the loop leaves unsealed — settle seals at a segment, so
	// the segment is made longer while the commands run — are a segment's
	// worth by the late compaction, which seals them.
	seg := histSegmentMin
	histSegmentMin = 1 << 20
	h := s.Handler()
	serve(t, h, "POST", "/v1/tenants/r/jobs:batch", `{"jobs":[{"task":"w"},{"task":"w"},{"task":"w"},{"task":"w"},{"task":"w"},{"task":"w"},{"task":"w"},{"task":"w"},{"task":"w"},{"task":"w"}]}`, http.StatusAccepted)
	serve(t, h, "POST", "/v1/tenants/r/advance", `{"by":"10"}`, http.StatusOK)
	histSegmentMin = seg
	want := serve(t, h, "GET", "/v1/tenants/r/dispatches?from=0&follow=false", "", http.StatusOK).Body.Bytes()
	sealed := func() (files []string) {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), "hist") {
				files = append(files, e.Name())
			}
		}
		return files
	}
	if n := bytes.Count(want, []byte{'\n'}); n < histSegmentMin || len(sealed()) != 0 {
		t.Fatalf("%d decisions, history files %v: want a segment's worth, unsealed", n, sealed())
	}
	closeWithLateCompaction(s, false)
	snap, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if files := sealed(); err != nil || len(files) != 1 || !bytes.Contains(snap, []byte(files[0])) {
		t.Fatalf("history files %v beside a snapshot that names them? %v", files, err)
	}
	s, err = Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rec := s.Recovery(); rec.Tenants != 1 || rec.RecordsReplayed != 0 {
		t.Fatalf("recovered %d tenants after replaying %d records, want 1 after none", rec.Tenants, rec.RecordsReplayed)
	}
	if got := serve(t, s.Handler(), "GET", "/v1/tenants/r/dispatches?from=0&follow=false", "", http.StatusOK).Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatal("?from=0 after the reopen differs from the stream before the close")
	}
}

package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"desyncpfair/internal/hop/hoptest"
	"desyncpfair/internal/server"
	"desyncpfair/internal/wal"
)

// quietLeader is a durable leader on which nothing but SyncJournal makes a
// record durable: no idle flush, a threshold out of reach, no compaction.
// fs nil is the real filesystem.
func quietLeader(t *testing.T, fs wal.FS) (*server.Server, *hoptest.Server) {
	t.Helper()
	srv, err := server.Open(server.Options{DataDir: t.TempDir(), FS: fs, FsyncEvery: 1 << 20, FsyncMaxDelay: -1, SnapshotEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	hs := hoptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.CloseClientConnections()
		hs.Close()
		srv.Close()
	})
	return srv, hs
}

func post(t *testing.T, url, body string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if reply, _ := io.ReadAll(resp.Body); resp.StatusCode/100 != 2 {
		t.Fatalf("POST %s: HTTP %d: %s", url, resp.StatusCode, reply)
	}
}

// followLog opens the live replication stream from LSN 1. The context bounds
// the whole test: a stream that is never woken fails its read, not the suite.
func followLog(t *testing.T, ctx context.Context, base string) (*bufio.Reader, func()) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/v1/replication/log?from=1&follow=true", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := (&http.Client{Transport: &http.Transport{}}).Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("open the log stream: %v, %v", resp, err)
	}
	return bufio.NewReader(resp.Body), func() { resp.Body.Close() }
}

// TestReplLogWakesOnFsync: the leader's log stream has no clock of its own.
// A record the leader has acknowledged but not synced is invisible — a read
// of everything durable is empty — and the stream parked behind it delivers
// the record once SyncJournal returns, with no ticker anywhere to find it; a
// follower applies it. Closing the leader ends the stream and leaves no
// handler behind.
func TestReplLogWakesOnFsync(t *testing.T) {
	leader, hs := quietLeader(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	post(t, hs.URL+"/v1/tenants", `{"id":"a","m":1}`) // acked at once: the ack is group-committed
	if recs := replicationLog(t, leader.Handler()); len(recs) != 0 {
		t.Fatalf("the log served %d records, none of them durable", len(recs))
	}
	stream, hangUp := followLog(t, ctx, hs.URL)
	defer hangUp()
	if n := metricValue(t, leader.Handler(), "pfaird_replication_log_streams"); n != 1 {
		t.Fatalf("pfaird_replication_log_streams = %d with one follower attached", n)
	}

	follower, err := server.Open(server.Options{DataDir: t.TempDir(), Follower: true, FsyncMaxDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if err := leader.SyncJournal(); err != nil {
		t.Fatal(err)
	}
	line, err := stream.ReadBytes('\n')
	if err != nil {
		t.Fatalf("the stream was not woken by the fsync: %v", err)
	}
	rec, ok := server.DecodeReplLine(line[:len(line)-1])
	if !ok || rec.LSN != 1 || rec.Tenant != "a" {
		t.Fatalf("first line after the fsync: %s", line)
	}
	if err := follower.ApplyReplicated(rec); err != nil {
		t.Fatal(err)
	}
	if got := follower.AppliedLSN(); got != 1 {
		t.Fatalf("follower applied LSN %d, want 1", got)
	}

	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	if rest, err := io.ReadAll(stream); err != nil || len(rest) != 0 {
		t.Fatalf("after Close the stream gave %q, %v; want a clean end", rest, err)
	}
	for ctx.Err() == nil {
		stacks := make([]byte, 1<<20)
		stacks = stacks[:runtime.Stack(stacks, true)]
		if !strings.Contains(string(stacks), "handleReplLog") {
			break
		}
		runtime.Gosched() // the handler is between its last write and its return
	}
	if ctx.Err() != nil {
		t.Fatal("a log stream handler outlived its server")
	}
	if n := metricValue(t, leader.Handler(), "pfaird_replication_log_streams"); n != 0 {
		t.Fatalf("pfaird_replication_log_streams = %d after the stream ended", n)
	}
}

// quickSyncFS is the real filesystem with an fsync that costs nothing, so a
// test decides to the microsecond when a record becomes durable.
type quickSyncFS struct{ wal.OSFS }

func (fs quickSyncFS) Create(path string) (wal.File, error) {
	f, err := fs.OSFS.Create(path)
	return quickSyncFile{f}, err
}

type quickSyncFile struct{ wal.File }

func (quickSyncFile) Sync() error { return nil }

// TestReplLogNoLostWakeup: rounds of two records, each journaled and synced
// on its own, the second a few microseconds after the first — while the
// stream's handler is somewhere between delivering the first, reading the log
// again, finding nothing and going to sleep. Nothing else makes a record
// durable and nothing else wakes the handler, so a wake-up lost in that
// window strands the second record and the read of it times out. The window
// is a few hundred nanoseconds wide: a handler that takes its wake channel
// after the empty read instead of before it was caught within 16 000 rounds
// in five runs of five, within 1 000 under the race detector.
func TestReplLogNoLostWakeup(t *testing.T) {
	const rounds = 20000
	leader, hs := quietLeader(t, quickSyncFS{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	stream, hangUp := followLog(t, ctx, hs.URL)
	defer hangUp()

	rng := rand.New(rand.NewSource(1))
	next := uint64(1)
	for round := 0; round < rounds; round++ {
		for i := 0; i < 2; i++ {
			if i == 1 { // aim into the handler's next empty read
				for until := time.Now().Add(time.Duration(rng.Intn(120)) * time.Microsecond); time.Now().Before(until); {
				}
			}
			if err := leader.JournalMarker(); err != nil {
				t.Fatal(err)
			}
			if err := leader.SyncJournal(); err != nil {
				t.Fatal(err)
			}
		}
		for tip := leader.AppliedLSN(); next <= tip; next++ {
			line, err := stream.ReadBytes('\n')
			if err != nil {
				t.Fatalf("round %d: LSN %d is durable and was never delivered: %v", round, next, err)
			}
			if rec, ok := server.DecodeReplLine(line[:len(line)-1]); !ok || rec.LSN != next {
				t.Fatalf("round %d: want LSN %d, got %s", round, next, line)
			}
		}
	}
}

// TestPromoteSyncsTermMarker: the term marker a promotion journals is
// durable when Promote returns, even where the group commit alone would
// leave it unsynced (FsyncEvery > 1, no idle flush) — a crash right after
// the node starts acking as leader must not lose its term.
func TestPromoteSyncsTermMarker(t *testing.T) {
	srv, err := server.Open(server.Options{DataDir: t.TempDir(), Follower: true, FsyncEvery: 64, FsyncMaxDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Promote(); err != nil {
		t.Fatal(err)
	}
	rw := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rw, httptest.NewRequest("GET", "/v1/replication/status", nil))
	var st server.ReplStatusResponse
	if err := json.Unmarshal(rw.Body.Bytes(), &st); err != nil {
		t.Fatalf("status %d %q: %v", rw.Code, rw.Body, err)
	}
	if st.Role != "leader" || st.WrittenLSN == 0 || st.DurableLSN != st.WrittenLSN {
		t.Fatalf("after Promote: %+v, want a leader whose term marker is durable", st)
	}
}

// TestClearReplicationErrorAllocatesNothing: the follower clears its
// transport error after every record it applies, so clearing allocates
// nothing, and an error set after a clear still shows.
func TestClearReplicationErrorAllocatesNothing(t *testing.T) {
	srv := server.New()
	defer srv.Shutdown()
	if a := testing.AllocsPerRun(100, func() { srv.SetReplicationError("") }); a != 0 {
		t.Errorf("SetReplicationError(\"\") allocates %.1f times, want 0", a)
	}
	srv.SetReplicationError("stream broke")
	if h, _ := healthz(t, srv.Handler()); h.ReplicationError != "stream broke" {
		t.Errorf("healthz replicationError %q, want the error just set", h.ReplicationError)
	}
	srv.SetReplicationError("")
	if h, _ := healthz(t, srv.Handler()); h.ReplicationError != "" {
		t.Errorf("healthz replicationError %q after a clear", h.ReplicationError)
	}
}

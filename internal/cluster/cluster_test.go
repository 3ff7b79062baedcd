package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"desyncpfair/internal/client"
	"desyncpfair/internal/cluster"
	"desyncpfair/internal/faultfs"
	"desyncpfair/internal/hop/hoptest"
	"desyncpfair/internal/model"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/server"
	"desyncpfair/internal/wal"
)

// openLeader starts a durable leader with FsyncEvery=1 (every ack is
// durable, the precondition for the acked ⊆ recovered invariant).
func openLeader(t *testing.T, dir string, fs wal.FS) (*server.Server, *hoptest.Server) {
	t.Helper()
	srv, err := server.Open(server.Options{DataDir: dir, FsyncEvery: 1, FS: fs})
	if err != nil {
		t.Fatalf("open leader: %v", err)
	}
	hs := hoptest.NewServer(srv.Handler())
	return srv, hs
}

// openFollower bootstraps a follower from leaderURL and starts it tailing.
func openFollower(t *testing.T, dir, leaderURL string) (*server.Server, *hoptest.Server, *cluster.Follower) {
	t.Helper()
	if err := cluster.Bootstrap(dir, leaderURL, nil, nil); err != nil {
		t.Fatalf("bootstrap follower: %v", err)
	}
	srv, err := server.Open(server.Options{DataDir: dir, FsyncEvery: 1, Follower: true})
	if err != nil {
		t.Fatalf("open follower: %v", err)
	}
	hs := hoptest.NewServer(srv.Handler())
	fol := cluster.StartFollower(srv, leaderURL, nil)
	return srv, hs, fol
}

func replStatus(t *testing.T, url string) server.ReplStatusResponse {
	t.Helper()
	var st server.ReplStatusResponse
	getJSON(t, url+"/v1/replication/status", &st)
	return st
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	stop := time.Now().Add(d)
	for time.Now().Before(stop) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// waitCaughtUp waits until the follower has applied the leader's full
// durable prefix AND left bootstrap (its status loop observed lag 0, so
// /healthz answers 200). The leader must be quiesced for this to be
// stable.
func waitCaughtUp(t *testing.T, fsrv *server.Server, followerURL, leaderURL string) {
	t.Helper()
	waitFor(t, 10*time.Second, "follower catch-up", func() bool {
		if fsrv.AppliedLSN() < replStatus(t, leaderURL).DurableLSN {
			return false
		}
		return !replStatus(t, followerURL).Bootstrapping
	})
}

func health(t *testing.T, url string) (server.HealthResponse, int) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var h server.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode /healthz: %v", err)
	}
	return h, resp.StatusCode
}

func assertTardinessBound(t *testing.T, info server.TenantInfo) {
	t.Helper()
	if info.MaxTardiness == "" {
		return
	}
	td, err := rat.Parse(info.MaxTardiness)
	if err != nil {
		t.Fatalf("parse MaxTardiness %q: %v", info.MaxTardiness, err)
	}
	if td.Cmp(rat.New(1, 1)) > 0 {
		t.Fatalf("max tardiness %s exceeds the one-quantum bound (Theorem 3)", info.MaxTardiness)
	}
}

// TestFollowerReplicatesAndPromotes is the seeded leader-kill acceptance
// test: a follower tails a live leader; an injected fsync failure wedges
// the leader mid-traffic; the follower drains the durable prefix, is
// promoted over HTTP, and must hold acked ≤ recovered ≤ issued across
// the boundary while its dispatch sequence stays a legal one-quantum-
// tardiness continuation.
func TestFollowerReplicatesAndPromotes(t *testing.T) {
	ffs := faultfs.New(faultfs.Options{Seed: 7, FailSyncAt: 60})
	lsrv, lhs := openLeader(t, t.TempDir(), ffs)
	defer lhs.Close()
	defer lsrv.Close()

	ctx := context.Background()
	lc := client.New(lhs.URL, nil)
	if _, err := lc.CreateTenant(ctx, "t", 1, ""); err != nil {
		t.Fatalf("CreateTenant: %v", err)
	}
	if _, err := lc.RegisterTask(ctx, "t", "x", model.Weight{E: 1, P: 2}); err != nil {
		t.Fatalf("RegisterTask: %v", err)
	}

	fsrv, fhs, _ := openFollower(t, t.TempDir(), lhs.URL)
	defer fhs.Close()
	defer fsrv.Close()

	// Drive keyed submits (with periodic advances) into the leader until
	// the injected fsync failure wedges it.
	issued, acked := 0, 0
	for i := 0; i < 200; i++ {
		issued++
		if _, err := lc.SubmitJobKeyed(ctx, "t", server.SubmitJobRequest{Task: "x", Key: fmt.Sprintf("k%d", i)}); err != nil {
			break
		}
		acked++
		if i%4 == 3 {
			if _, err := lc.AdvanceBy(ctx, "t", "1"); err != nil {
				break
			}
		}
	}
	if acked == issued {
		t.Fatalf("leader never wedged: %d/%d submits acked", acked, issued)
	}
	t.Logf("leader wedged: issued %d, acked %d", issued, acked)

	// The wedged leader's durable prefix is still servable; the follower
	// must drain it completely — that is what makes promotion lossless.
	waitCaughtUp(t, fsrv, fhs.URL, lhs.URL)

	if h, code := health(t, lhs.URL); code != http.StatusServiceUnavailable || h.Status != "wal-failed" {
		t.Fatalf("wedged leader /healthz = %q (%d), want wal-failed 503", h.Status, code)
	}
	if h, code := health(t, fhs.URL); code != http.StatusOK || h.Role != "follower" {
		t.Fatalf("follower /healthz = role %q (%d), want follower 200", h.Role, code)
	}
	// Followers answer 503 to mutations so the router never writes to one.
	fc := client.New(fhs.URL, nil)
	if _, err := fc.SubmitJob(ctx, "t", "x", ""); err == nil {
		t.Fatal("follower accepted a mutation")
	}

	// Promote over the wire, as the router would.
	resp, err := http.Post(fhs.URL+"/v1/cluster/promote", "application/json", nil)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	var pr server.PromoteResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: HTTP %d, decode err %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	if pr.Role != "leader" || pr.Term == 0 {
		t.Fatalf("promote returned role %q term %d, want leader with a bumped term", pr.Role, pr.Term)
	}
	if h, code := health(t, fhs.URL); code != http.StatusOK || h.Role != "leader" {
		t.Fatalf("promoted /healthz = role %q (%d), want leader 200", h.Role, code)
	}

	// A key acked by the old leader must be deduped by the new one: the
	// idempotency memory replicated with the journal.
	before, err := fc.Tenant(ctx, "t")
	if err != nil {
		t.Fatalf("Tenant: %v", err)
	}
	if _, err := fc.SubmitJobKeyed(ctx, "t", server.SubmitJobRequest{Task: "x", Key: "k0"}); err != nil {
		t.Fatalf("resubmit of an acked key on the new leader: %v", err)
	}
	after, err := fc.Tenant(ctx, "t")
	if err != nil {
		t.Fatalf("Tenant: %v", err)
	}
	if after.Pending != before.Pending || after.Dispatches != before.Dispatches {
		t.Fatalf("resent acked key changed state: pending %d→%d, dispatches %d→%d",
			before.Pending, after.Pending, before.Dispatches, after.Dispatches)
	}

	// The new leader continues the schedule: more traffic, then a full
	// drain, then the cross-boundary invariant.
	for i := 0; i < 20; i++ {
		issued++
		if _, err := fc.SubmitJobKeyed(ctx, "t", server.SubmitJobRequest{Task: "x", Key: fmt.Sprintf("post%d", i)}); err != nil {
			t.Fatalf("submit on new leader: %v", err)
		}
		acked++
	}
	if _, err := fc.Drain(ctx, "t"); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	info, err := fc.Tenant(ctx, "t")
	if err != nil {
		t.Fatalf("Tenant: %v", err)
	}
	// Each job is one E=1 subtask, so total dispatches == recovered jobs.
	recovered := int(info.Dispatches)
	if recovered < acked || recovered > issued {
		t.Fatalf("acked ≤ recovered ≤ issued violated: acked %d, recovered %d, issued %d", acked, recovered, issued)
	}
	assertTardinessBound(t, info)

	// The dispatch history must be a legal continuation: one gap-free,
	// duplicate-free sequence spanning the leader→follower boundary.
	st, err := fc.StreamDispatches(ctx, "t", 0, false)
	if err != nil {
		t.Fatalf("StreamDispatches: %v", err)
	}
	defer st.Close()
	for want := int64(0); want < int64(recovered); want++ {
		ev, err := st.Next()
		if err != nil {
			t.Fatalf("dispatch stream ended at seq %d of %d: %v", want, recovered, err)
		}
		if ev.Seq != want {
			t.Fatalf("dispatch seq %d out of order (want %d): not a legal continuation", ev.Seq, want)
		}
	}
}

// TestStaleLeaderFenced pins term fencing end to end: after a promotion,
// a deposed leader that kept appending to its own timeline cannot ship
// that divergent suffix into a node that has adopted the new term.
func TestStaleLeaderFenced(t *testing.T) {
	asrv, ahs := openLeader(t, t.TempDir(), nil)
	defer ahs.Close()
	defer asrv.Close()

	ctx := context.Background()
	ac := client.New(ahs.URL, nil)
	if _, err := ac.CreateTenant(ctx, "t", 1, ""); err != nil {
		t.Fatalf("CreateTenant: %v", err)
	}
	if _, err := ac.RegisterTask(ctx, "t", "x", model.Weight{E: 1, P: 2}); err != nil {
		t.Fatalf("RegisterTask: %v", err)
	}

	// B replicates A, catches up, and is promoted: term 1.
	bsrv, bhs, bfol := openFollower(t, t.TempDir(), ahs.URL)
	defer bhs.Close()
	defer bsrv.Close()
	waitCaughtUp(t, bsrv, bhs.URL, ahs.URL)
	if err := bfol.Promote(); err != nil {
		t.Fatalf("promote B: %v", err)
	}

	// C adopts B's timeline — including the OpTerm fence record.
	csrv, chs, cfol := openFollower(t, t.TempDir(), bhs.URL)
	defer chs.Close()
	defer csrv.Close()
	waitCaughtUp(t, csrv, chs.URL, bhs.URL)
	cApplied := csrv.AppliedLSN()
	if err := cfol.Seal(); err != nil {
		t.Fatalf("seal C: %v", err)
	}

	// A, deposed but unaware, keeps appending term-0 records on its own
	// divergent timeline…
	for i := 0; i < 3; i++ {
		if _, err := ac.SubmitJob(ctx, "t", "x", ""); err != nil {
			t.Fatalf("stale leader submit: %v", err)
		}
	}
	// …and C is (mis)pointed at it. The very first shipped record must
	// be rejected by term, leaving C's state untouched.
	cluster.StartFollower(csrv, ahs.URL, nil)
	waitFor(t, 5*time.Second, "C to fence the stale leader", func() bool {
		h, _ := health(t, chs.URL)
		return strings.Contains(h.ReplicationError, "fenced")
	})
	if got := csrv.AppliedLSN(); got != cApplied {
		t.Fatalf("C applied %d records from a fenced leader (LSN %d → %d)", got-cApplied, cApplied, got)
	}
	if h, _ := health(t, chs.URL); h.Status != "degraded" {
		t.Fatalf("fenced follower /healthz = %q, want degraded", h.Status)
	}
}

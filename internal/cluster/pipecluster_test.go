package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"desyncpfair/internal/hop"
	"desyncpfair/internal/hop/hoptest"
	"desyncpfair/internal/server"
)

// TestClusterOverPipes runs a leader, a follower and pfair-router in one
// process with no socket. Each serves through hop.Server on one in-memory
// network, and every call between them goes through a hop.Upstream that dials
// it by address: the router's to its backends, the follower's to its leader,
// the test's to the router. Keyed submits through the router land on the
// leader once each; a follower started after them catches up; and its ?from=0
// dispatch stream is the leader's, byte for byte. No ticker fires: the router
// probes once, at Start, and the follower's status poll runs once.
func TestClusterOverPipes(t *testing.T) {
	ctx := testContext(t)
	var pipes hoptest.Pipes
	serve := func(addr string, h http.Handler) *hop.Upstream {
		t.Helper()
		hs := &hop.Server{Handler: h}
		go hs.Serve(pipes.Listen(addr))
		t.Cleanup(func() { hs.Close() })
		up, err := hop.New("http://" + addr)
		if err != nil {
			t.Fatal(err)
		}
		hop.DialWith(up, pipes.Dial)
		t.Cleanup(up.CloseIdle)
		return up
	}
	call := func(up *hop.Upstream, method, target, body string, want int) []byte {
		t.Helper()
		resp, err := up.RoundTrip(ctx, method, target, "application/json", []byte(body))
		if err != nil {
			t.Fatalf("%s %s: %v", method, target, err)
		}
		defer resp.Body.Close()
		reply, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != want {
			t.Fatalf("%s %s%s: %d %s (%v), want %d", method, up.URL, target, resp.StatusCode, reply, err, want)
		}
		return reply
	}

	lsrv, err := server.Open(server.Options{DataDir: t.TempDir(), FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lsrv.Close() })
	leader := serve("leader.test:80", lsrv.Handler())

	// The follower's address is in the group from the start; nothing listens
	// there at the router's one probe, so the leader is the one backend it
	// can reach.
	router, err := NewRouter(RouterOptions{Groups: [][]string{{leader.URL, "http://follower.test:80"}}})
	if err != nil {
		t.Fatal(err)
	}
	router.newTicker = neverTicker
	for _, ups := range router.ups {
		for _, up := range ups {
			hop.DialWith(up, pipes.Dial)
		}
	}
	router.Start()
	t.Cleanup(router.Close)
	front := serve("router.test:80", router.Handler())

	call(front, "POST", "/v1/tenants", `{"id":"t","m":2}`, http.StatusCreated)
	call(front, "POST", "/v1/tenants/t/tasks", `{"name":"x","e":1,"p":2}`, http.StatusCreated)
	call(front, "POST", "/v1/tenants/t/tasks", `{"name":"y","e":2,"p":3}`, http.StatusCreated)
	const jobs = 6
	for i := 0; i < jobs; i++ {
		for _, task := range []string{"x", "y"} {
			body := fmt.Sprintf(`{"task":%q,"key":"%s%d"}`, task, task, i)
			first := call(front, "POST", "/v1/tenants/t/jobs", body, http.StatusAccepted)
			if again := call(front, "POST", "/v1/tenants/t/jobs", body, http.StatusAccepted); !bytes.Equal(again, first) {
				t.Fatalf("a resent keyed submit answered %s, the first %s", again, first)
			}
		}
		call(front, "POST", "/v1/tenants/t/advance", `{"by":"3"}`, http.StatusOK)
	}
	var info server.TenantInfo
	if err := json.Unmarshal(call(leader, "GET", "/v1/tenants/t", "", http.StatusOK), &info); err != nil {
		t.Fatal(err)
	}
	// x's jobs are one subtask each and y's two: each submit applied once,
	// and all of them dispatched by now.
	if info.Dispatches != 3*jobs || info.Pending != 0 {
		t.Fatalf("the leader's tenant after %d keyed submits of each task, each sent twice: %+v; want %d dispatches", jobs, info, 3*jobs)
	}

	dir := t.TempDir()
	if err := Bootstrap(dir, leader.URL, pipes.Dial, nil); err != nil {
		t.Fatal(err)
	}
	fsrv, err := server.Open(server.Options{DataDir: dir, FsyncEvery: 1, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	fol := startFollower(fsrv, leader.URL, pipes.Dial, neverTicker)
	t.Cleanup(func() {
		fol.Seal()
		fsrv.Close()
	})
	follower := serve("follower.test:80", fsrv.Handler())
	if lsn, _, err := fol.WaitReady(ctx); err != nil || lsn != lsrv.AppliedLSN() {
		t.Fatalf("the follower was ready at LSN %d (%v), the leader's tip is %d", lsn, err, lsrv.AppliedLSN())
	}

	const replay = "/v1/tenants/t/dispatches?from=0&follow=false"
	want := call(leader, "GET", replay, "", http.StatusOK)
	if got := call(follower, "GET", replay, "", http.StatusOK); !bytes.Equal(got, want) {
		t.Fatalf("the follower's dispatch stream differs from the leader's:\n%s\nleader:\n%s", got, want)
	}
	if n := bytes.Count(want, []byte("\n")); int64(n) != info.Dispatches {
		t.Fatalf("the leader's stream holds %d frames, its tenant %d dispatches", n, info.Dispatches)
	}
}

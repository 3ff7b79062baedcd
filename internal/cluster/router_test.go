package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"desyncpfair/internal/client"
	"desyncpfair/internal/hop/hoptest"
	"desyncpfair/internal/model"
	"desyncpfair/internal/server"
)

func learnedPlacements(r *Router) int {
	n := 0
	r.placed.Range(func(_, _ any) bool { n++; return true })
	return n
}

// TestRouterForgetsDeletedTenant: under a policy that cannot recompute a
// tenant's group the router learns it, and used to keep it for ever — the
// guard on the tenant-delete route counted two slashes in a path that has
// three. A hundred tenants created and deleted leave nothing learned, and an
// id created again goes where the policy puts it now.
func TestRouterForgetsDeletedTenant(t *testing.T) {
	backends := make([]*hoptest.Server, 2)
	var groups [][]string
	for i := range backends {
		srv := server.New()
		defer srv.Shutdown()
		backends[i] = hoptest.NewServer(srv.Handler())
		defer backends[i].Close()
		groups = append(groups, []string{backends[i].URL})
	}
	r, err := NewRouter(RouterOptions{Groups: groups, Policy: &RoundRobin{}, HealthInterval: 25 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	r.Start()
	defer r.Close()
	front := hoptest.NewServer(r.Handler())
	defer front.Close()

	ctx := context.Background()
	rc := client.New(front.URL, nil)
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("t%d", i)
		if _, err := rc.CreateTenant(ctx, id, 1, ""); err != nil {
			t.Fatalf("CreateTenant %s: %v", id, err)
		}
		if _, err := rc.RegisterTask(ctx, id, "x", model.Weight{E: 1, P: 2}); err != nil {
			t.Fatalf("RegisterTask %s: %v", id, err)
		}
		// Deleting a task is not deleting the tenant: the location stays.
		if err := rc.UnregisterTask(ctx, id, "x"); err != nil {
			t.Fatalf("UnregisterTask %s: %v", id, err)
		}
		if _, ok := r.placed.Load(id); !ok {
			t.Fatalf("tenant %s: location forgotten by a task delete", id)
		}
		if err := rc.DeleteTenant(ctx, id); err != nil {
			t.Fatalf("DeleteTenant %s: %v", id, err)
		}
	}
	if n := learnedPlacements(r); n != 0 {
		t.Fatalf("%d learned placements left after every tenant was deleted", n)
	}

	// The same id twice: round-robin alternates, so the second life is on the
	// other group, and requests for it go there.
	where := func(id string) int {
		t.Helper()
		at := -1
		for i, b := range backends {
			if _, err := client.New(b.URL, nil).Tenant(ctx, id); err == nil {
				if at >= 0 {
					t.Fatalf("tenant %s is on both groups", id)
				}
				at = i
			}
		}
		return at
	}
	if _, err := rc.CreateTenant(ctx, "again", 1, ""); err != nil {
		t.Fatal(err)
	}
	first := where("again")
	if err := rc.DeleteTenant(ctx, "again"); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.CreateTenant(ctx, "again", 1, ""); err != nil {
		t.Fatal(err)
	}
	if second := where("again"); first < 0 || second != 1-first {
		t.Fatalf("tenant created twice under round-robin: group %d, then group %d; want the policy to place it afresh", first, second)
	}
	if _, err := rc.RegisterTask(ctx, "again", "x", model.Weight{E: 1, P: 2}); err != nil {
		t.Fatalf("RegisterTask on the re-created tenant: %v", err)
	}
}

// TestRouterKeepsPlacementUntilTenantIsGone: the location is dropped on the
// backend's word only — 2xx (deleted) or 404 (already gone). After any other
// answer the tenant may still be there, and its next request must find it.
func TestRouterKeepsPlacementUntilTenantIsGone(t *testing.T) {
	var status atomic.Int64
	fb := newFakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(int(status.Load()))
	})
	r, err := NewRouter(RouterOptions{Groups: [][]string{{fb.URL}}, Policy: &RoundRobin{}, HealthInterval: 25 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	r.Start()
	defer r.Close()
	front := hoptest.NewServer(r.Handler())
	defer front.Close()
	waitLeader(t, r)

	for _, tc := range []struct {
		path      string
		status    int
		forgotten bool
	}{
		{"/v1/tenants/t", http.StatusNoContent, true},
		{"/v1/tenants/t", http.StatusOK, true},
		{"/v1/tenants/t", http.StatusNotFound, true},
		{"/v1/tenants/t", http.StatusConflict, false},
		{"/v1/tenants/t", http.StatusServiceUnavailable, false},
		{"/v1/tenants/t/", http.StatusNotFound, false},
		{"/v1/tenants/t/tasks/x", http.StatusNoContent, false},
	} {
		r.placed.Store("t", 0)
		status.Store(int64(tc.status))
		resp, _ := do(t, "DELETE", front.URL+tc.path, "", "")
		if resp.StatusCode != tc.status {
			t.Errorf("DELETE %s: HTTP %d, want the backend's %d", tc.path, resp.StatusCode, tc.status)
		}
		if _, ok := r.placed.Load("t"); ok == tc.forgotten {
			t.Errorf("DELETE %s answered %d: location forgotten = %v, want %v", tc.path, tc.status, !ok, tc.forgotten)
		}
	}
}

// TestRouterResendsOnlyKeyedSubmits: whether a request may be sent twice is
// asked after an attempt has failed, not before the first. A backend that
// answers 503 once gets a keyed submit again, which succeeds; an un-keyed one
// surfaces the 503 and the backend saw exactly one POST.
func TestRouterResendsOnlyKeyedSubmits(t *testing.T) {
	var posts, failNext atomic.Int64
	fb := newFakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		posts.Add(1)
		if failNext.Add(-1) >= 0 {
			http.Error(w, "server: follower: writes go to the leader", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, `{"at":"0","pending":1}`+"\n")
	})
	_, front := frontFor(t, fb.URL)
	url := front.URL + "/v1/tenants/t/jobs"

	for _, tc := range []struct {
		name, body  string
		wantStatus  int
		wantBackend int64
	}{
		{"keyed", `{"task":"x","key":"k1"}`, http.StatusAccepted, 2},
		{"keyed, a body only encoding/json reads", `{"task":"x","key":"ké"}`, http.StatusAccepted, 2},
		{"un-keyed", `{"task":"x"}`, http.StatusServiceUnavailable, 1},
		{"not a submit at all", `{"task":`, http.StatusServiceUnavailable, 1},
	} {
		posts.Store(0)
		failNext.Store(1)
		resp, reply := do(t, "POST", url, "application/json", tc.body)
		if resp.StatusCode != tc.wantStatus || posts.Load() != tc.wantBackend {
			t.Errorf("%s submit against a backend that answers 503 once: HTTP %d %s after %d backend POSTs; want %d after %d",
				tc.name, resp.StatusCode, strings.TrimSpace(reply), posts.Load(), tc.wantStatus, tc.wantBackend)
		}
	}
}

// TestNewRouterRefusesUnusableBackends: pfaird is plain HTTP on a host and a
// port. Anything else used to pass ParseGroups and fail once per request.
func TestNewRouterRefusesUnusableBackends(t *testing.T) {
	for _, tc := range []struct {
		backend string
		ok      bool
	}{
		{"http://127.0.0.1:8080", true},
		{"http://pfaird-a:8080", true},
		{"http://[::1]:8080", true},
		{"https://127.0.0.1:8080", false},
		{"http://127.0.0.1:8080/prefix", false},
		{"http://127.0.0.1:8080/", false},
		{"http://127.0.0.1:8080?x=1", false},
		{"http://user@127.0.0.1:8080", false},
		{"http://127.0.0.1", false},
		{"http://:8080", false},
		{"http://127.0.0.1:http", false},
		{"127.0.0.1:8080", false},
		{"", false},
	} {
		_, err := NewRouter(RouterOptions{Groups: [][]string{{"http://127.0.0.1:1", tc.backend}}})
		if (err == nil) != tc.ok {
			t.Errorf("NewRouter with backend %q: error %v, want accepted = %v", tc.backend, err, tc.ok)
		}
	}
	// What the flag's parser hands over is accepted as it is.
	groups, err := ParseGroups("http://a:8080/, http://a2:8080 ;http://b:8080")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRouter(RouterOptions{Groups: groups}); err != nil {
		t.Errorf("NewRouter(ParseGroups(...)): %v", err)
	}
}

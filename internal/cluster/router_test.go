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

// TestRouterForgetsDeletedTenant: the router keeps nothing of a tenant, so
// a deleted one is gone from every group, and an id created again lands
// where rendezvous puts it, as the first time. A hundred tenants created,
// given a task, stripped of it and deleted through the router leave no
// tenant behind; a task delete is not a tenant delete.
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
	r, err := NewRouter(RouterOptions{Groups: groups, HealthInterval: 25 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	r.Start()
	defer r.Close()
	front := hoptest.NewServer(r.Handler())
	defer front.Close()

	ctx := context.Background()
	rc := client.New(front.URL, nil)
	// where names the one group holding id, or -1 for none.
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
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("t%d", i)
		if _, err := rc.CreateTenant(ctx, id, 1, ""); err != nil {
			t.Fatalf("CreateTenant %s: %v", id, err)
		}
		if _, err := rc.RegisterTask(ctx, id, "x", model.Weight{E: 1, P: 2}); err != nil {
			t.Fatalf("RegisterTask %s: %v", id, err)
		}
		if err := rc.UnregisterTask(ctx, id, "x"); err != nil {
			t.Fatalf("UnregisterTask %s: %v", id, err)
		}
		if g := where(id); g != rendezvous(id, 2) {
			t.Fatalf("tenant %s after a task delete: on group %d, want %d", id, g, rendezvous(id, 2))
		}
		if err := rc.DeleteTenant(ctx, id); err != nil {
			t.Fatalf("DeleteTenant %s: %v", id, err)
		}
		if g := where(id); g >= 0 {
			t.Fatalf("tenant %s still on group %d after its delete", id, g)
		}
		if _, err := rc.Tenant(ctx, id); err == nil {
			t.Fatalf("tenant %s still answers through the router after its delete", id)
		}
	}
	if infos, err := rc.Tenants(ctx); err != nil || len(infos) != 0 {
		t.Fatalf("merged tenant list after every delete: %d tenants, %v", len(infos), err)
	}

	// The same id twice: both lives are on the group rendezvous names, and
	// requests for the second go there.
	want := rendezvous("again", 2)
	for life := 1; life <= 2; life++ {
		if _, err := rc.CreateTenant(ctx, "again", 1, ""); err != nil {
			t.Fatalf("CreateTenant again, life %d: %v", life, err)
		}
		if g := where("again"); g != want {
			t.Fatalf("tenant again, life %d: on group %d, want %d", life, g, want)
		}
		if life == 1 {
			if err := rc.DeleteTenant(ctx, "again"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := rc.RegisterTask(ctx, "again", "x", model.Weight{E: 1, P: 2}); err != nil {
		t.Fatalf("RegisterTask on the re-created tenant: %v", err)
	}
}

// TestRouterKeepsPlacementUntilTenantIsGone: whatever a backend answers a
// delete — deleted, already gone, conflict, unavailable — the router passes
// the answer on, and the tenant's next request goes to the same group: a
// tenant that may still be there must be found where it was.
func TestRouterKeepsPlacementUntilTenantIsGone(t *testing.T) {
	var status atomic.Int64
	var hits [2]atomic.Int64
	var groups [][]string
	for i := range hits {
		fb := newFakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			hits[i].Add(1)
			w.WriteHeader(int(status.Load()))
		})
		groups = append(groups, []string{fb.URL})
	}
	r, err := NewRouter(RouterOptions{Groups: groups, HealthInterval: 25 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	r.Start()
	defer r.Close()
	front := hoptest.NewServer(r.Handler())
	defer front.Close()
	deadline := time.Now().Add(5 * time.Second)
	for gi := range groups {
		for r.table.Load().groups[gi].leader < 0 {
			if time.Now().After(deadline) {
				t.Fatalf("the router never found group %d's leader", gi)
			}
			time.Sleep(time.Millisecond)
		}
	}

	home := rendezvous("t", 2)
	for _, tc := range []struct {
		path   string
		status int
	}{
		{"/v1/tenants/t", http.StatusNoContent},
		{"/v1/tenants/t", http.StatusOK},
		{"/v1/tenants/t", http.StatusNotFound},
		{"/v1/tenants/t", http.StatusConflict},
		{"/v1/tenants/t", http.StatusServiceUnavailable},
		{"/v1/tenants/t/", http.StatusNotFound},
		{"/v1/tenants/t/tasks/x", http.StatusNoContent},
	} {
		hits[0].Store(0)
		hits[1].Store(0)
		status.Store(int64(tc.status))
		resp, _ := do(t, "DELETE", front.URL+tc.path, "", "")
		if resp.StatusCode != tc.status {
			t.Errorf("DELETE %s: HTTP %d, want the backend's %d", tc.path, resp.StatusCode, tc.status)
		}
		status.Store(http.StatusOK)
		do(t, "GET", front.URL+"/v1/tenants/t", "", "")
		if h, o := hits[home].Load(), hits[1-home].Load(); h != 2 || o != 0 {
			t.Errorf("DELETE %s answered %d, then a GET: group %d saw %d requests and group %d saw %d, want 2 and 0",
				tc.path, tc.status, home, h, 1-home, o)
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

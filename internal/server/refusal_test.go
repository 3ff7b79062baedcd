package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"desyncpfair/internal/wal"
)

// openJournaled opens a durable server that never compacts on its own, so
// its journal's append count moves only with the records commands write.
func openJournaled(t *testing.T) *Server {
	t.Helper()
	s, err := Open(Options{DataDir: t.TempDir(), SnapshotEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// batchOf is a jobs:batch body of n jobs of task.
func batchOf(task string, n int) string {
	return `{"jobs":[` + strings.TrimSuffix(strings.Repeat(`{"task":"`+task+`"},`, n), ",") + `]}`
}

// TestRefusalsLeaveNoRecord: every way a tenant command can be refused
// before it is journaled, through the HTTP handlers of a durable server —
// the executive's checks (task lookup, name, weight, Σwt, m, undispatched
// work, arrival, earliness) and the service's bounds on backlog and on
// name length. Each answers the status it did before the executive became
// the one ledger (the backlog and name bounds are new), and the journal
// gains no record.
func TestRefusalsLeaveNoRecord(t *testing.T) {
	s := openJournaled(t)
	h := s.Handler()
	serve(t, h, "POST", "/v1/tenants", `{"id":"r","m":1}`, http.StatusCreated)
	serve(t, h, "POST", "/v1/tenants/r/tasks", `{"name":"a","e":1,"p":2}`, http.StatusCreated)
	serve(t, h, "POST", "/v1/tenants/r/tasks", `{"name":"wide","e":1025,"p":1048576}`, http.StatusCreated)
	serve(t, h, "POST", "/v1/tenants/r/advance", `{"by":"1"}`, http.StatusOK)
	serve(t, h, "POST", "/v1/tenants/r/jobs", `{"task":"a"}`, http.StatusAccepted) // a has work undispatched
	// Tenant o's Σwt sits over a denominator of ≈ 2^60 (three primes near
	// 2^20): one more such period leaves int64.
	serve(t, h, "POST", "/v1/tenants", `{"id":"o","m":1}`, http.StatusCreated)
	for _, p := range []int{1048573, 1048571, 1048559} {
		serve(t, h, "POST", "/v1/tenants/o/tasks", fmt.Sprintf(`{"name":"p%d","e":1,"p":%d}`, p, p), http.StatusCreated)
	}
	// A name or id of MaxNameLen bytes is admitted, one byte more is not.
	longest, over := strings.Repeat("n", MaxNameLen), strings.Repeat("n", MaxNameLen+1)
	serve(t, h, "POST", "/v1/tenants", `{"id":"`+longest+`","m":1}`, http.StatusCreated)
	serve(t, h, "POST", "/v1/tenants/"+longest+"/tasks", `{"name":"`+longest+`","e":1,"p":2}`, http.StatusCreated)

	for _, tc := range []struct {
		name, method, path, body string
		want                     int
	}{
		{"unknown task: submit", "POST", "/v1/tenants/r/jobs", `{"task":"zz"}`, http.StatusBadRequest},
		{"unknown task: batch", "POST", "/v1/tenants/r/jobs:batch", `{"jobs":[{"task":"a"},{"task":"zz"}]}`, http.StatusBadRequest},
		{"unknown task: unregister", "DELETE", "/v1/tenants/r/tasks/zz", "", http.StatusConflict},
		{"empty name", "POST", "/v1/tenants/r/tasks", `{"name":"","e":1,"p":4}`, http.StatusBadRequest},
		{"name over MaxNameLen", "POST", "/v1/tenants/r/tasks", `{"name":"` + over + `","e":1,"p":4}`, http.StatusBadRequest},
		{"tenant id over MaxNameLen", "POST", "/v1/tenants", `{"id":"` + over + `","m":1}`, http.StatusBadRequest},
		{"duplicate name", "POST", "/v1/tenants/r/tasks", `{"name":"a","e":1,"p":4}`, http.StatusBadRequest},
		{"invalid weight", "POST", "/v1/tenants/r/tasks", `{"name":"w","e":3,"p":2}`, http.StatusBadRequest},
		{"Σwt overflow", "POST", "/v1/tenants/o/tasks", `{"name":"p4","e":1,"p":1048549}`, http.StatusBadRequest},
		{"infeasible register", "POST", "/v1/tenants/r/tasks", `{"name":"big","e":1,"p":1}`, http.StatusConflict},
		{"m below range", "POST", "/v1/tenants/r/resize", `{"m":0}`, http.StatusBadRequest},
		{"m above range", "POST", "/v1/tenants/r/resize", fmt.Sprintf(`{"m":%d}`, MaxM+1), http.StatusBadRequest},
		{"unregister with undispatched work", "DELETE", "/v1/tenants/r/tasks/a", "", http.StatusConflict},
		{"at before now", "POST", "/v1/tenants/r/jobs", `{"task":"a","at":"0"}`, http.StatusBadRequest},
		{"negative earliness", "POST", "/v1/tenants/r/jobs", `{"task":"a","earliness":-1}`, http.StatusBadRequest},
		{"batch alone over the backlog cap", "POST", "/v1/tenants/r/jobs:batch", batchOf("wide", MaxBatchJobs), http.StatusRequestEntityTooLarge},
	} {
		before := s.WALStats().Appends
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
		if rw.Code != tc.want {
			t.Errorf("%s: %d %s, want %d", tc.name, rw.Code, rw.Body, tc.want)
		}
		if n := s.WALStats().Appends - before; n != 0 {
			t.Errorf("%s: the journal gained %d records", tc.name, n)
		}
	}
	if info := s.tenant("r").Info(); info.Tasks != 2 || info.Pending != 1 || info.M != 1 || info.Utilization != "525313/1048576" {
		t.Errorf("refusals changed tenant r: %+v", info)
	}
	if s.tenant(over) != nil {
		t.Errorf("the refused tenant id over MaxNameLen exists")
	}
}

// TestLongNamesStillReplay: MaxNameLen refuses a request, not a record. A
// journal that an older version wrote with a tenant id and a task name
// over the bound replays them, decisions and all, and the snapshot the
// boot compaction writes with them restores them too.
func TestLongNamesStillReplay(t *testing.T) {
	dir := t.TempDir()
	id, name := strings.Repeat("i", 2*MaxNameLen), strings.Repeat("t", 2*MaxNameLen)
	l, _, err := wal.Open(dir, wal.Options{FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []wal.Record{
		{Op: wal.OpTenantCreate, Tenant: id, M: 1},
		{Op: wal.OpTaskRegister, Tenant: id, Name: name, E: 1, P: 2},
		{Op: wal.OpJobSubmit, Tenant: id, Name: name},
		{Op: wal.OpAdvance, Tenant: id, At: "2"},
	} {
		c, err := l.AppendAsync(r)
		if err == nil {
			err = l.Wait(c)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	for _, from := range []string{"the journal", "the boot snapshot"} {
		s, err := Open(Options{DataDir: dir, SnapshotEvery: 1 << 30})
		if err != nil {
			t.Fatalf("open from %s: %v", from, err)
		}
		tn := s.tenant(id)
		if rec := s.Recovery(); rec.ReplayErrors != 0 || rec.DispatchMismatches != 0 || tn == nil {
			t.Fatalf("open from %s: %d replay errors, %d mismatches, tenant found %v", from, rec.ReplayErrors, rec.DispatchMismatches, tn != nil)
		}
		if info := tn.Info(); info.Tasks != 1 || tn.snap.Load().log.len() != 1 {
			t.Fatalf("open from %s: %+v with %d decisions, want the long-named task and its one", from, info, tn.snap.Load().log.len())
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBacklogCapThroughHandler: MaxBacklog counts E per job across a run
// of coalesced singles and across a batch. With the loop held, two single
// submits of a job of MaxBacklog subtasks queue behind each other: the
// first fits an idle tenant exactly, the second answers 429 like a full
// ring. Then a batch of one more job answers 429 and a batch of two, which
// no retry can ever fit, 413. None of the refusals leaves a record or a
// pending subtask.
func TestBacklogCapThroughHandler(t *testing.T) {
	s := openJournaled(t)
	h := s.Handler()
	serve(t, h, "POST", "/v1/tenants", `{"id":"r","m":1}`, http.StatusCreated)
	serve(t, h, "POST", "/v1/tenants/r/tasks", fmt.Sprintf(`{"name":"w","e":%d,"p":%d}`, MaxBacklog, MaxBacklog), http.StatusCreated)
	tn := s.tenant("r")
	before := s.WALStats().Appends

	entered, gate := make(chan struct{}), make(chan struct{})
	go tn.onLoop(func() {
		close(entered)
		<-gate
	})
	<-entered
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			rw := httptest.NewRecorder()
			h.ServeHTTP(rw, httptest.NewRequest("POST", "/v1/tenants/r/jobs", strings.NewReader(`{"task":"w"}`)))
			codes <- rw.Code
		}()
	}
	for tn.Queued() < 2 {
		runtime.Gosched()
	}
	close(gate)
	got := map[int]int{}
	for i := 0; i < 2; i++ {
		got[<-codes]++
	}
	if got[http.StatusAccepted] != 1 || got[http.StatusTooManyRequests] != 1 {
		t.Fatalf("two coalesced jobs of the whole cap answered %v, want one 202 and one 429", got)
	}
	if n := s.WALStats().Appends - before; n != 1 {
		t.Fatalf("the coalesced run journaled %d records, want the accepted job's 1", n)
	}

	before = s.WALStats().Appends
	if rw := serve(t, h, "POST", "/v1/tenants/r/jobs:batch", batchOf("w", 1), http.StatusTooManyRequests); rw.Header().Get("Retry-After") != "0" {
		t.Errorf("backlog 429 without Retry-After: 0: %v", rw.Header())
	}
	serve(t, h, "POST", "/v1/tenants/r/jobs:batch", batchOf("w", 2), http.StatusRequestEntityTooLarge)
	if n := s.WALStats().Appends - before; n != 0 {
		t.Errorf("refused batches journaled %d records", n)
	}
	if p := tn.Info().Pending; int64(p) != MaxBacklog {
		t.Errorf("%d subtasks pending, want the one accepted job's %d", p, MaxBacklog)
	}
	// Deleted, the tenant's backlog is not written into the final snapshot.
	serve(t, h, "DELETE", "/v1/tenants/r", "", http.StatusNoContent)
}

package server_test

// Concurrency tests for the single-writer tenant loop: submitters racing
// scrapers across compaction and tenant churn (run the package with -race
// to make these meaningful), and seeded crash runs proving the ring never
// acknowledges a command the journal did not capture.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"desyncpfair/internal/faultfs"
	"desyncpfair/internal/server"
)

// TestConcurrentSubmittersAndScrapers drives N submitters against two
// long-lived tenants while scrapers hammer every lock-free read path
// (/metrics, /healthz, dispatch replay, trace replay), a churner
// registers/unregisters a task, and a third tenant is deleted and
// recreated mid-traffic — all over a durable server with a snapshot
// interval small enough that compaction (which checkpoints every tenant
// through a control command on its ring) interleaves with the load. Under
// -race this is the proof that snapshot publication, the frozen route map,
// and the delete's stop command synchronize correctly; the final
// close/reopen proves the interleaving journals a replayable history.
func TestConcurrentSubmittersAndScrapers(t *testing.T) {
	dir := t.TempDir()
	srv, err := server.Open(server.Options{
		DataDir: dir, FsyncEvery: 8, FsyncMaxDelay: -1, SnapshotEvery: 48,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	do := func(c cmd) int { return doCmd(t, h, c) }
	mustDo := func(c cmd) {
		if code := do(c); code >= 300 {
			t.Fatalf("setup %s %s: status %d", c.method, c.path, code)
		}
	}
	for _, id := range []string{"s0", "s1"} {
		mustDo(cmd{"POST", "/v1/tenants", server.CreateTenantRequest{ID: id, M: 2}})
		for k := 0; k < 4; k++ {
			mustDo(cmd{"POST", "/v1/tenants/" + id + "/tasks",
				server.RegisterTaskRequest{Name: fmt.Sprintf("t%d", k), E: 1, P: 4}})
		}
	}

	// Every status below 500 is a legal outcome while tenants churn:
	// 404 (deleted tenant), 409 (recreate race), 429 (ring full),
	// 400 (unregister with pending work). 5xx means the server broke.
	var bad atomic.Int64
	check := func(code int) {
		if code >= 500 {
			bad.Add(1)
		}
	}

	const submitters = 6
	const iters = 60
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("s%d", w%2)
			task := fmt.Sprintf("t%d", w%4)
			for i := 0; i < iters; i++ {
				check(do(cmd{"POST", "/v1/tenants/" + id + "/jobs", server.SubmitJobRequest{Task: task}}))
				if i%8 == 7 {
					check(do(cmd{"POST", "/v1/tenants/" + id + "/advance", server.AdvanceRequest{By: "1"}}))
				}
			}
		}(w)
	}
	// Tenant churn: create, load, delete, repeat — exercising the close
	// protocol (backlog flush, journal-ordered delete) under live traffic
	// from the scrapers enumerating all tenants.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			check(do(cmd{"POST", "/v1/tenants", server.CreateTenantRequest{ID: "victim", M: 1}}))
			check(do(cmd{"POST", "/v1/tenants/victim/tasks", server.RegisterTaskRequest{Name: "v", E: 1, P: 2}}))
			check(do(cmd{"POST", "/v1/tenants/victim/jobs", server.SubmitJobRequest{Task: "v"}}))
			check(do(cmd{"POST", "/v1/tenants/victim/drain", nil}))
			check(do(cmd{"DELETE", "/v1/tenants/victim", nil}))
		}
	}()
	// Task churn on a live tenant: drain-then-unregister races fresh
	// submits, so both outcomes (gone before or after) must be clean.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			check(do(cmd{"POST", "/v1/tenants/s0/tasks", server.RegisterTaskRequest{Name: "churn", E: 1, P: 8}}))
			check(do(cmd{"POST", "/v1/tenants/s0/jobs", server.SubmitJobRequest{Task: "churn"}}))
			check(do(cmd{"POST", "/v1/tenants/s0/drain", nil}))
			check(do(cmd{"DELETE", "/v1/tenants/s0/tasks/churn", nil}))
		}
	}()
	const scrapers = 3
	stop := make(chan struct{})
	var swg sync.WaitGroup
	for g := 0; g < scrapers; g++ {
		swg.Add(1)
		go func(g int) {
			defer swg.Done()
			paths := []string{
				"/metrics",
				"/healthz",
				"/v1/tenants",
				"/v1/tenants/s0/dispatches?follow=false",
				"/v1/tenants/s1/trace?follow=false",
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := httptest.NewRequest("GET", paths[(i+g)%len(paths)], nil)
				rw := httptest.NewRecorder()
				h.ServeHTTP(rw, req)
				check(rw.Code)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	swg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d requests answered 5xx during concurrent load", n)
	}

	before := captureState(t, h)
	for id, ti := range before.Infos {
		assertTardinessBound(t, "loaded "+id, ti)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	srv2, err := server.Open(server.Options{DataDir: dir, FsyncEvery: 8, SnapshotEvery: 48})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer srv2.Close()
	rec := srv2.Recovery()
	if rec.ReplayErrors != 0 || rec.DispatchMismatches != 0 {
		t.Fatalf("reopen degraded: %d replay errors, %d dispatch mismatches",
			rec.ReplayErrors, rec.DispatchMismatches)
	}
	assertStateEqual(t, "reopened vs pre-close", captureState(t, srv2.Handler()), before)
}

// TestCrashNeverAcksUnjournaled runs concurrent submitters against a
// filesystem that dies mid-write at a seeded byte budget, then recovers
// and checks the acknowledgment invariant: every 2xx-acked command is in
// the recovered state (acked ≤ rec.Commands), and the journal never
// invents work (rec.Commands ≤ issued). Because submitters ack only after
// waitDurable, a command the ring accepted but the journal lost must have
// answered 5xx — if the loop ever completed a command before its journal
// frame group, some seed here catches it as acked > rec.Commands. Each
// seed runs under every crash model (crashModels): a process crash at
// FsyncEvery 4; a power cut at FsyncEvery 1 ("powerloss-seedNN"), where an
// ack that did not wait for its fsync is lost; and one at FsyncEvery 4
// ("powerloss-grouped-seedNN"), where acked commands may be lost, but the
// journal keeps every record more than 3 behind the newest acked one's.
// The submitters share records, so that is the window the newest ack
// bounds: its record follows whatever was written when it was sent.
func TestCrashNeverAcksUnjournaled(t *testing.T) {
	for _, m := range crashModels {
		for seed := 0; seed < 12; seed++ {
			seed := seed
			t.Run(m.name+fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				budget := int64(512 + seed*seed*700)
				ffs := faultfs.New(faultfs.Options{Seed: int64(seed), CrashAtByte: budget, PowerLoss: m.powerLoss})

				var acked, issued atomic.Int64
				var newest atomic.Uint64 // the most written before an acked command was sent
				srvA, err := server.Open(server.Options{
					DataDir: dir, FsyncEvery: m.fsyncEvery(4), FsyncMaxDelay: -1, SnapshotEvery: 64, FS: ffs,
				})
				if err == nil {
					h := srvA.Handler()
					do := func(c cmd) int {
						issued.Add(1)
						before := srvA.AppliedLSN()
						code := doCmd(t, h, c)
						if code < 300 {
							acked.Add(1)
							for n := newest.Load(); n < before && !newest.CompareAndSwap(n, before); n = newest.Load() {
							}
						}
						return code
					}
					setupOK := true
					if do(cmd{"POST", "/v1/tenants", server.CreateTenantRequest{ID: "w", M: 2}}) >= 300 {
						setupOK = false
					}
					for k := 0; setupOK && k < 4; k++ {
						if do(cmd{"POST", "/v1/tenants/w/tasks",
							server.RegisterTaskRequest{Name: fmt.Sprintf("t%d", k), E: 1, P: 4}}) >= 300 {
							setupOK = false
						}
					}
					if setupOK {
						var wg sync.WaitGroup
						for g := 0; g < 4; g++ {
							wg.Add(1)
							go func(g int) {
								defer wg.Done()
								task := fmt.Sprintf("t%d", g)
								for i := 0; i < 60; i++ {
									code := do(cmd{"POST", "/v1/tenants/w/jobs", server.SubmitJobRequest{Task: task}})
									if code >= 500 {
										return // journal wedged after the crash
									}
									if i%8 == 7 {
										if do(cmd{"POST", "/v1/tenants/w/advance", server.AdvanceRequest{By: "1"}}) >= 500 {
											return
										}
									}
								}
							}(g)
						}
						wg.Wait()
					}
					_ = srvA.Close() // errors expected post-crash
				}

				srvB, err := server.Open(server.Options{DataDir: dir, FsyncEvery: 4, SnapshotEvery: 64})
				if err != nil {
					t.Fatalf("recovery Open after crash at byte %d: %v", budget, err)
				}
				defer srvB.Close()
				rec := srvB.Recovery()
				if rec.ReplayErrors != 0 {
					t.Fatalf("recovery replayed with %d errors", rec.ReplayErrors)
				}
				if rec.DispatchMismatches != 0 {
					t.Fatalf("recovery saw %d dispatch mismatches", rec.DispatchMismatches)
				}
				a, i := uint64(acked.Load()), uint64(issued.Load())
				if (!m.grouped && rec.Commands < a) || rec.Commands > i {
					t.Fatalf("recovered %d commands outside [acked %d, issued %d] (crash at byte %d, %d truncated): an acked command escaped the journal",
						rec.Commands, a, i, budget, rec.TruncatedBytes)
				}
				// The newest acked record is past newest; its ack left fewer than
				// 4 records unsynced, so the journal keeps up to newest+1-3.
				if a > 0 && srvB.AppliedLSN()+4 < newest.Load()+2 {
					t.Fatalf("recovered the journal to LSN %d; an ack sent after LSN %d promised it past %d",
						srvB.AppliedLSN(), newest.Load(), newest.Load()+1-3)
				}
				if ffs.Crashed() {
					var health server.HealthResponse
					hreq := httptest.NewRequest("GET", "/healthz", nil)
					hrw := httptest.NewRecorder()
					srvB.Handler().ServeHTTP(hrw, hreq)
					if hrw.Code != http.StatusOK {
						t.Fatalf("healthz after recovery: %d", hrw.Code)
					}
					if json.Unmarshal(hrw.Body.Bytes(), &health); health.Status != "ok" {
						t.Fatalf("recovered server health %q, want ok", health.Status)
					}
				}
			})
		}
	}
}

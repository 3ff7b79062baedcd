package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"desyncpfair/internal/faultfs"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/server"
)

// cmd is one scripted API call. The crash script is a fixed, always-valid
// command sequence: every call succeeds on a healthy server, so the only
// possible failure is the injected crash. That is what makes "number of
// 2xx responses" == "number of journaled commands" an exact invariant.
type cmd struct {
	method, path string
	body         any
}

// crashScript builds the deterministic load: three tenants (one of them
// created, used, and deleted), task churn after drains, integral and
// fractional advances, and early releasing — every journaled op kind.
func crashScript() []cmd {
	var sc []cmd
	add := func(method, path string, body any) { sc = append(sc, cmd{method, path, body}) }

	add("POST", "/v1/tenants", server.CreateTenantRequest{ID: "A", M: 2})
	add("POST", "/v1/tenants", server.CreateTenantRequest{ID: "B", M: 2, Policy: "PD2"})
	add("POST", "/v1/tenants/A/tasks", server.RegisterTaskRequest{Name: "a1", E: 1, P: 2})
	add("POST", "/v1/tenants/A/tasks", server.RegisterTaskRequest{Name: "a2", E: 2, P: 3})
	add("POST", "/v1/tenants/A/tasks", server.RegisterTaskRequest{Name: "a3", E: 1, P: 4})
	add("POST", "/v1/tenants/B/tasks", server.RegisterTaskRequest{Name: "b1", E: 3, P: 4})
	add("POST", "/v1/tenants/B/tasks", server.RegisterTaskRequest{Name: "b2", E: 1, P: 2})

	// A short-lived tenant exercises delete replay.
	add("POST", "/v1/tenants", server.CreateTenantRequest{ID: "C", M: 1})
	add("POST", "/v1/tenants/C/tasks", server.RegisterTaskRequest{Name: "c1", E: 1, P: 1})
	add("POST", "/v1/tenants/C/jobs", server.SubmitJobRequest{Task: "c1"})
	add("POST", "/v1/tenants/C/advance", server.AdvanceRequest{By: "2"})
	add("POST", "/v1/tenants/C/drain", nil)
	add("DELETE", "/v1/tenants/C", nil)

	for r := 0; r < 8; r++ {
		add("POST", "/v1/tenants/A/jobs", server.SubmitJobRequest{Task: "a1"})
		add("POST", "/v1/tenants/A/jobs", server.SubmitJobRequest{Task: "a2"})
		add("POST", "/v1/tenants/A/advance", server.AdvanceRequest{By: "1"})
		add("POST", "/v1/tenants/A/jobs", server.SubmitJobRequest{Task: "a3", Earliness: 1})
		add("POST", "/v1/tenants/A/advance", server.AdvanceRequest{By: "1/2"})
		add("POST", "/v1/tenants/B/jobs", server.SubmitJobRequest{Task: "b1"})
		add("POST", "/v1/tenants/B/advance", server.AdvanceRequest{By: "1"})
		add("POST", "/v1/tenants/B/jobs", server.SubmitJobRequest{Task: "b2"})
		add("POST", "/v1/tenants/B/advance", server.AdvanceRequest{By: "3/2"})
	}
	add("POST", "/v1/tenants/A/drain", nil)
	add("POST", "/v1/tenants/B/drain", nil)

	// Task churn is only legal right after a drain (no undispatched work).
	add("DELETE", "/v1/tenants/A/tasks/a3", nil)
	add("POST", "/v1/tenants/A/tasks", server.RegisterTaskRequest{Name: "a4", E: 1, P: 3})
	for r := 0; r < 4; r++ {
		add("POST", "/v1/tenants/A/jobs", server.SubmitJobRequest{Task: "a4"})
		add("POST", "/v1/tenants/A/jobs", server.SubmitJobRequest{Task: "a1"})
		add("POST", "/v1/tenants/A/advance", server.AdvanceRequest{By: "2"})
		add("POST", "/v1/tenants/B/jobs", server.SubmitJobRequest{Task: "b1"})
		add("POST", "/v1/tenants/B/advance", server.AdvanceRequest{By: "1/2"})
	}
	add("POST", "/v1/tenants/A/drain", nil)
	add("POST", "/v1/tenants/B/drain", nil)
	return sc
}

// doCmd drives one scripted call straight through the handler.
func doCmd(t testing.TB, h http.Handler, c cmd) int {
	t.Helper()
	var body io.Reader
	if c.body != nil {
		b, err := json.Marshal(c.body)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(b)
	}
	req := httptest.NewRequest(c.method, c.path, body)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	return rw.Code
}

// serverState is everything observable about a server's tenants: the info
// snapshots and the complete dispatch logs.
type serverState struct {
	Infos  map[string]server.TenantInfo
	Events map[string][]server.DispatchEvent
}

func captureState(t *testing.T, h http.Handler) serverState {
	t.Helper()
	st := serverState{Infos: map[string]server.TenantInfo{}, Events: map[string][]server.DispatchEvent{}}
	req := httptest.NewRequest("GET", "/v1/tenants", nil)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusOK {
		t.Fatalf("list tenants: %d", rw.Code)
	}
	var infos []server.TenantInfo
	if err := json.Unmarshal(rw.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	for _, ti := range infos {
		st.Infos[ti.ID] = ti
		req := httptest.NewRequest("GET", "/v1/tenants/"+ti.ID+"/dispatches?follow=false", nil)
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if rw.Code != http.StatusOK {
			t.Fatalf("dispatches %s: %d", ti.ID, rw.Code)
		}
		var evs []server.DispatchEvent
		sc := bufio.NewScanner(bytes.NewReader(rw.Body.Bytes()))
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var ev server.DispatchEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("dispatch line: %v", err)
			}
			evs = append(evs, ev)
		}
		st.Events[ti.ID] = evs
	}
	return st
}

// TestCrashRecoveryPrefixConsistent is the fault-injection suite of the
// tentpole: for 50 seeded crash points it runs the scripted load against a
// durable server on a crash-at-byte-N filesystem, then recovers from the
// surviving directory and asserts
//
//  1. recovery is clean (no replay errors, no dispatch mismatches),
//  2. acked ≤ recovered commands ≤ issued — nothing acknowledged is ever
//     lost, and the only thing recovery may add beyond the acked prefix
//     is the in-flight suffix: commands journaled and applied whose
//     durability ack the crash cut off (the pipelined ack path makes this
//     window real; log-before-apply makes it safe),
//  3. the recovered state — every tenant's info and complete dispatch
//     log — equals the uninterrupted reference run after the same
//     command count, which makes the recovered dispatch stream a
//     prefix-consistent continuation of the reference run,
//  4. re-applying the rest of the script converges on the reference's
//     final state decision for decision, and
//  5. no tenant ever exceeds Theorem 3's one-quantum tardiness bound.
//
// Crash budgets grow quadratically so the 50 points cluster where the
// journal is young (boot, snapshot writes, first commands) and still
// reach far past the script's total write volume (a no-crash control).
// Each point runs under every crash model (crashModels): a process crash
// at FsyncEvery 3 ("seedNN"), a power cut at FsyncEvery 1
// ("powerloss-seedNN", faultfs PowerLoss), which loses what no fsync
// covered — so only a server whose every ack waits for its fsync keeps
// acked ≤ recovered — and a power cut at FsyncEvery 3
// ("powerloss-grouped-seedNN"), which may lose acked commands, but only
// within the window the group commit leaves unsynced.
func TestCrashRecoveryPrefixConsistent(t *testing.T) {
	script := crashScript()

	// Reference: uninterrupted in-memory run, capturing the observable
	// state after every command prefix.
	ref := server.New()
	states := make([]serverState, 0, len(script)+1)
	states = append(states, captureState(t, ref.Handler()))
	for i, c := range script {
		if code := doCmd(t, ref.Handler(), c); code >= 300 {
			t.Fatalf("reference script command %d (%s %s) failed: %d", i, c.method, c.path, code)
		}
		states = append(states, captureState(t, ref.Handler()))
	}
	for id, ti := range states[len(script)].Infos {
		assertTardinessBound(t, "reference "+id, ti)
	}

	for _, m := range crashModels {
		for seed := 0; seed < 50; seed++ {
			seed := seed
			t.Run(m.name+fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				budget := int64(64 + seed*seed*160)
				ffs := faultfs.New(faultfs.Options{Seed: int64(seed), CrashAtByte: budget, PowerLoss: m.powerLoss})

				acked, issued := 0, 0
				var w ackWindow
				srvA, err := server.Open(server.Options{
					DataDir: dir, FsyncEvery: m.fsyncEvery(3), FsyncMaxDelay: -1, SnapshotEvery: 16, FS: ffs,
				})
				if err == nil {
					for _, c := range script {
						issued++
						before := srvA.AppliedLSN()
						if code := doCmd(t, srvA.Handler(), c); code >= 300 {
							break
						}
						acked++
						w.acked(srvA, before)
					}
					_ = srvA.Close() // releases descriptors; errors expected post-crash
				}
				if !ffs.Crashed() && acked < len(script) {
					t.Fatalf("script stopped at command %d without a crash (budget %d)", acked, budget)
				}

				// Recover on the real filesystem from whatever survived.
				srvB, err := server.Open(server.Options{DataDir: dir, FsyncEvery: 3, SnapshotEvery: 16})
				if err != nil {
					t.Fatalf("recovery Open after crash at byte %d: %v", budget, err)
				}
				defer srvB.Close()
				rec := srvB.Recovery()
				if rec == nil || !rec.Durable {
					t.Fatal("recovered server reports no recovery info")
				}
				if rec.ReplayErrors != 0 {
					t.Fatalf("recovery replayed with %d errors", rec.ReplayErrors)
				}
				if rec.DispatchMismatches != 0 {
					t.Fatalf("recovery saw %d dispatch mismatches: the regenerated decisions contradict the journal", rec.DispatchMismatches)
				}
				if (!m.grouped && rec.Commands < uint64(acked)) || rec.Commands > uint64(issued) {
					t.Fatalf("recovered %d commands outside [acked %d, issued %d] (crash at byte %d, %d truncated)",
						rec.Commands, acked, issued, budget, rec.TruncatedBytes)
				}
				w.lostWithin(t, 3, rec.Commands)

				got := captureState(t, srvB.Handler())
				assertStateEqual(t, "recovered vs reference prefix", got, states[rec.Commands])

				var health server.HealthResponse
				hreq := httptest.NewRequest("GET", "/healthz", nil)
				hrw := httptest.NewRecorder()
				srvB.Handler().ServeHTTP(hrw, hreq)
				if hrw.Code != http.StatusOK {
					t.Fatalf("healthz after clean recovery: %d", hrw.Code)
				}
				if json.Unmarshal(hrw.Body.Bytes(), &health); health.Status != "ok" {
					t.Fatalf("healthz status %q after clean recovery", health.Status)
				}

				// Continue the script where the recovered prefix ended (not the
				// acked prefix: an in-flight command that survived must not be
				// replayed twice); the recovered server must converge on the
				// reference final state.
				done := int(rec.Commands)
				for i, c := range script[done:] {
					if code := doCmd(t, srvB.Handler(), c); code >= 300 {
						t.Fatalf("continuation command %d (%s %s) failed: %d", done+i, c.method, c.path, code)
					}
				}
				final := captureState(t, srvB.Handler())
				assertStateEqual(t, "continuation vs reference final", final, states[len(script)])
				for id, ti := range final.Infos {
					assertTardinessBound(t, "recovered "+id, ti)
				}

				// A clean shutdown snapshots everything: the next boot replays
				// nothing and still serves the same state.
				if err := srvB.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				srvC, err := server.Open(server.Options{DataDir: dir})
				if err != nil {
					t.Fatalf("reopen after clean shutdown: %v", err)
				}
				defer srvC.Close()
				if rc := srvC.Recovery(); rc.RecordsReplayed != 0 {
					t.Fatalf("reopen after clean shutdown replayed %d records, want 0", rc.RecordsReplayed)
				}
				assertStateEqual(t, "reopen vs reference final", captureState(t, srvC.Handler()), states[len(script)])
			})
		}
	}
}

// crashModel is one way the crash-at-byte sweeps cut a run short: a
// process crash, which keeps every byte written before the crash point, at
// the sweep's own group-commit setting; or a power cut (faultfs
// PowerLoss), which loses what no fsync covered, at FsyncEvery 1 — the
// setting under which every ack waits for its record's fsync — or, grouped,
// at the sweep's own setting k, under which an ack leaves fewer than k
// records unsynced (wal.Log.Wait), so a crash may lose acknowledged
// commands among them. name prefixes the subtest's.
type crashModel struct {
	name      string
	powerLoss bool
	grouped   bool
}

var crashModels = []crashModel{{"", false, false}, {"powerloss-", true, false}, {"powerloss-grouped-", true, true}}

// fsyncEvery is the FsyncEvery the model runs at, given the sweep's own
// setting.
func (m crashModel) fsyncEvery(sweep int) int {
	if m.powerLoss && !m.grouped {
		return 1
	}
	return sweep
}

// ackWindow tracks a sequential run's acknowledged commands against the
// journal: the LSN of each one's record (every counted command journals
// one, right after what was written before it was sent), and the written
// LSN when the last ack returned.
type ackWindow struct {
	frames  []uint64
	lastAck uint64
}

// acked records one more acknowledged command, sent when srv had written
// up to before.
func (w *ackWindow) acked(srv *server.Server, before uint64) {
	w.frames = append(w.frames, before+1)
	w.lastAck = srv.AppliedLSN()
}

// lostWithin holds the acked commands a recovery of recovered commands
// lost to the group commit's contract at FsyncEvery k: each one's record
// lies among the last k-1 the journal had written when the last ack
// returned, which every ack leaves unsynced at most.
func (w *ackWindow) lostWithin(t *testing.T, k int, recovered uint64) {
	t.Helper()
	for i := recovered; i < uint64(len(w.frames)); i++ {
		if w.lastAck-w.frames[i] >= uint64(k) {
			t.Fatalf("acked command %d (record %d) lost, %d records behind the last ack's %d: outside the FsyncEvery %d window",
				i, w.frames[i], w.lastAck-w.frames[i], w.lastAck, k)
		}
	}
}

// TestCrashRecoveryBatchSubmit is the batch-path seed batch: the same
// prefix-consistency contract as above, but the load submits jobs through
// POST /v1/tenants/{id}/jobs:batch with FsyncEvery=1, so every ack rides
// the pipelined wait (append+apply under the lock, fsync outside it) and a
// crash can land between the fsync and the ack — or tear the batch's
// record mid-write. The reference runs the same jobs singly: a batch is
// one journal record that counts as its jobs, so the recovered command
// count indexes the same per-command state sequence — at a batch boundary:
// a torn batch recovers as nothing, never as a prefix of itself
// (TestTornBatchIsAllOrNothing sweeps every byte of one).
func TestCrashRecoveryBatchSubmit(t *testing.T) {
	// Logical command stream: the per-command granularity both the journal
	// and the reference states use. batchAt[i] marks the start of a
	// 4-job batch in the logical stream.
	var logical []cmd
	batchStarts := map[int]int{} // logical index → batch size
	add := func(c cmd) { logical = append(logical, c) }

	add(cmd{"POST", "/v1/tenants", server.CreateTenantRequest{ID: "A", M: 2}})
	add(cmd{"POST", "/v1/tenants/A/tasks", server.RegisterTaskRequest{Name: "a1", E: 1, P: 2}})
	add(cmd{"POST", "/v1/tenants/A/tasks", server.RegisterTaskRequest{Name: "a2", E: 2, P: 3}})
	for r := 0; r < 10; r++ {
		batchStarts[len(logical)] = 4
		add(cmd{"POST", "/v1/tenants/A/jobs", server.SubmitJobRequest{Task: "a1"}})
		add(cmd{"POST", "/v1/tenants/A/jobs", server.SubmitJobRequest{Task: "a2"}})
		add(cmd{"POST", "/v1/tenants/A/jobs", server.SubmitJobRequest{Task: "a1"}})
		add(cmd{"POST", "/v1/tenants/A/jobs", server.SubmitJobRequest{Task: "a2"}})
		add(cmd{"POST", "/v1/tenants/A/advance", server.AdvanceRequest{By: "2"}})
	}
	add(cmd{"POST", "/v1/tenants/A/drain", nil})

	// Reference: the logical stream applied one command at a time.
	ref := server.New()
	states := make([]serverState, 0, len(logical)+1)
	states = append(states, captureState(t, ref.Handler()))
	for i, c := range logical {
		if code := doCmd(t, ref.Handler(), c); code >= 300 {
			t.Fatalf("reference command %d (%s %s) failed: %d", i, c.method, c.path, code)
		}
		states = append(states, captureState(t, ref.Handler()))
	}

	// Each seed crashes the process, and then cuts the power, at its byte:
	// at FsyncEvery 1 an ack waits for its fsync, so under either model
	// recovery keeps every acked command and nothing beyond the issued.
	for run := 0; run < 24; run++ {
		seed, powerLoss := run%12, run >= 12
		name := fmt.Sprintf("seed%02d", seed)
		if powerLoss {
			name = "powerloss-" + name
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			budget := int64(96 + seed*seed*420)
			ffs := faultfs.New(faultfs.Options{Seed: int64(seed), CrashAtByte: budget, PowerLoss: powerLoss})

			acked, issued := 0, 0
			srvA, err := server.Open(server.Options{
				DataDir: dir, FsyncEvery: 1, FsyncMaxDelay: -1, SnapshotEvery: 64, FS: ffs,
			})
			if err == nil {
			drive:
				for i := 0; i < len(logical); {
					if size, ok := batchStarts[i]; ok {
						var breq server.SubmitJobsRequest
						for j := 0; j < size; j++ {
							breq.Jobs = append(breq.Jobs, logical[i+j].body.(server.SubmitJobRequest))
						}
						issued += size
						if code := doCmd(t, srvA.Handler(), cmd{"POST", "/v1/tenants/A/jobs:batch", breq}); code >= 300 {
							break drive
						}
						acked += size
						i += size
						continue
					}
					issued++
					if code := doCmd(t, srvA.Handler(), logical[i]); code >= 300 {
						break drive
					}
					acked++
					i++
				}
				_ = srvA.Close()
			}
			if !ffs.Crashed() && acked < len(logical) {
				t.Fatalf("script stopped at command %d without a crash (budget %d)", acked, budget)
			}

			srvB, err := server.Open(server.Options{DataDir: dir, FsyncEvery: 1, SnapshotEvery: 64})
			if err != nil {
				t.Fatalf("recovery Open after crash at byte %d: %v", budget, err)
			}
			defer srvB.Close()
			rec := srvB.Recovery()
			if rec.ReplayErrors != 0 || rec.DispatchMismatches != 0 {
				t.Fatalf("recovery not clean: %d replay errors, %d dispatch mismatches", rec.ReplayErrors, rec.DispatchMismatches)
			}
			if rec.Commands < uint64(acked) || rec.Commands > uint64(issued) {
				t.Fatalf("recovered %d commands outside [acked %d, issued %d] (crash at byte %d, %d truncated)",
					rec.Commands, acked, issued, budget, rec.TruncatedBytes)
			}
			assertStateEqual(t, "recovered vs reference prefix", captureState(t, srvB.Handler()), states[rec.Commands])
			for start, size := range batchStarts {
				if n := int(rec.Commands); n > start && n < start+size {
					t.Fatalf("recovered %d commands: %d of the %d jobs of the batch at %d", n, n-start, size, start)
				}
			}

			// Converge: run the remaining logical commands singly.
			done := int(rec.Commands)
			for i, c := range logical[done:] {
				if code := doCmd(t, srvB.Handler(), c); code >= 300 {
					t.Fatalf("continuation command %d (%s %s) failed: %d", done+i, c.method, c.path, code)
				}
			}
			final := captureState(t, srvB.Handler())
			assertStateEqual(t, "continuation vs reference final", final, states[len(logical)])
			for id, ti := range final.Infos {
				assertTardinessBound(t, "recovered "+id, ti)
			}
		})
	}
}

func assertStateEqual(t *testing.T, what string, got, want serverState) {
	t.Helper()
	if len(got.Infos) != len(want.Infos) {
		t.Fatalf("%s: %d tenants, want %d", what, len(got.Infos), len(want.Infos))
	}
	for id, wi := range want.Infos {
		gi, ok := got.Infos[id]
		if !ok {
			t.Fatalf("%s: tenant %s missing", what, id)
		}
		if gi != wi {
			t.Fatalf("%s: tenant %s info = %+v, want %+v", what, id, gi, wi)
		}
		ge, we := got.Events[id], want.Events[id]
		if len(ge) != len(we) {
			t.Fatalf("%s: tenant %s has %d dispatch events, want %d", what, id, len(ge), len(we))
		}
		for i := range we {
			if ge[i] != we[i] {
				t.Fatalf("%s: tenant %s decision %d = %+v, want %+v", what, id, i, ge[i], we[i])
			}
		}
		_ = reflect.DeepEqual // structs are comparable; kept for clarity if fields grow
	}
}

func assertTardinessBound(t *testing.T, what string, ti server.TenantInfo) {
	t.Helper()
	tar, err := rat.Parse(ti.MaxTardiness)
	if err != nil {
		t.Fatalf("%s: maxTardiness %q: %v", what, ti.MaxTardiness, err)
	}
	if rat.One.Less(tar) {
		t.Fatalf("%s: max tardiness %s exceeds Theorem 3's one-quantum bound", what, tar)
	}
}

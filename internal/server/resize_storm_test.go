package server_test

import (
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"desyncpfair/internal/faultfs"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/server"
)

// stormCmd is one scripted call of a resize storm. expectReject marks a
// deliberately infeasible request (a shrink below Σwt without drain, or a
// registration over the effective cap): on a healthy server it must
// return 409 and journal nothing — that is the "never silently applied"
// half of the resize-safety contract.
type stormCmd struct {
	cmd
	expectReject bool
}

// resizeStormScript generates a seeded storm of capacity changes
// interleaved with load: grows, feasible shrinks, infeasible shrinks
// (both rejected and drain-queued, the queued ones then converged by
// unregisters), registrations gated by the pending target, submits,
// advances, and drains. The generator mirrors the admission controller's
// semantics exactly, so every command not marked expectReject succeeds on
// a healthy server — which is what makes "2xx responses" == "journaled
// commands" an exact invariant for the crash harness.
func resizeStormScript(seed int64) []stormCmd {
	rng := rand.New(rand.NewSource(seed))
	var sc []stormCmd
	add := func(method, path string, body any) {
		sc = append(sc, stormCmd{cmd: cmd{method, path, body}})
	}
	addReject := func(method, path string, body any) {
		sc = append(sc, stormCmd{cmd: cmd{method, path, body}, expectReject: true})
	}

	// Mirror of the tenant's admission state.
	type task struct {
		name string
		e, p int64
	}
	m, pending := 2, 0
	util := rat.Zero
	var tasks []task
	nextID := 0
	cap := func() int {
		if pending != 0 {
			return pending
		}
		return m
	}
	ceilUtil := func() int { return int(util.Ceil()) }
	weights := [][2]int64{{1, 2}, {1, 3}, {2, 3}, {1, 4}, {3, 4}}

	register := func() {
		w := weights[rng.Intn(len(weights))]
		name := fmt.Sprintf("t%d", nextID)
		newTotal := util.Add(rat.New(w[0], w[1]))
		if rat.FromInt(int64(cap())).Less(newTotal) {
			addReject("POST", "/v1/tenants/S/tasks", server.RegisterTaskRequest{Name: name, E: w[0], P: w[1]})
			return
		}
		nextID++
		tasks = append(tasks, task{name, w[0], w[1]})
		util = newTotal
		add("POST", "/v1/tenants/S/tasks", server.RegisterTaskRequest{Name: name, E: w[0], P: w[1]})
	}

	add("POST", "/v1/tenants", server.CreateTenantRequest{ID: "S", M: m})
	for len(tasks) < 3 {
		register()
	}

	for round := 0; round < 12; round++ {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			add("POST", "/v1/tenants/S/jobs", server.SubmitJobRequest{Task: tasks[rng.Intn(len(tasks))].name})
		}
		add("POST", "/v1/tenants/S/advance", server.AdvanceRequest{By: []string{"1/2", "1", "3/2", "2"}[rng.Intn(4)]})

		switch rng.Intn(5) {
		case 0: // grow (cancels any pending shrink — the newest target wins)
			if target := m + 1 + rng.Intn(2); target <= 8 {
				add("POST", "/v1/tenants/S/resize", server.ResizeRequest{M: target})
				m, pending = target, 0
			}
		case 1: // feasible shrink to exactly ⌈Σwt⌉
			if target := ceilUtil(); target >= 1 && target < m && pending == 0 {
				add("POST", "/v1/tenants/S/resize", server.ResizeRequest{M: target})
				m = target
			}
		case 2: // infeasible shrink without drain: must be rejected
			if target := ceilUtil() - 1; target >= 1 && rat.FromInt(int64(target)).Less(util) {
				addReject("POST", "/v1/tenants/S/resize", server.ResizeRequest{M: target})
			}
		case 3: // infeasible shrink with drain: queued, then converged
			target := ceilUtil() - 1
			if target < 1 || !rat.FromInt(int64(target)).Less(util) || pending != 0 {
				break
			}
			add("POST", "/v1/tenants/S/resize", server.ResizeRequest{M: target, Drain: true})
			pending = target
			// Unregisters are only legal with no undispatched work.
			add("POST", "/v1/tenants/S/drain", nil)
			for rat.FromInt(int64(pending)).Less(util) {
				last := tasks[len(tasks)-1]
				tasks = tasks[:len(tasks)-1]
				util = util.Sub(rat.New(last.e, last.p))
				add("DELETE", "/v1/tenants/S/tasks/"+last.name, nil)
			}
			m, pending = pending, 0
			for len(tasks) == 0 {
				register()
			}
		case 4: // churn: register (possibly gated by a pending target)
			register()
		}
	}
	add("POST", "/v1/tenants/S/drain", nil)
	return sc
}

// normalizeStorm zeroes the rejection counters of a captured state:
// rejected requests journal nothing by design, so their count is restored
// from the last snapshot, not replayed — every other field must round-trip
// exactly.
func normalizeStorm(st serverState) serverState {
	out := serverState{Infos: map[string]server.TenantInfo{}, Events: st.Events}
	for id, ti := range st.Infos {
		ti.Rejections = 0
		out.Infos[id] = ti
	}
	return out
}

// TestResizeStormCrashRecovery is the resize-safety property harness: 50
// seeded storms of grows, shrinks, drain-queued shrinks, and load, each
// run against a durable server on a crash-at-byte filesystem so crashes
// land mid-resize and mid-drain, then recovered and continued. Each run
// asserts
//
//  1. an infeasible shrink without drain is always rejected with 409 and
//     never silently applied — on the live server, on the recovered
//     server, and in the continuation;
//  2. recovery is clean and acked ≤ recovered commands ≤ issued;
//  3. the recovered state — including the capacity history M/PendingM —
//     equals the uninterrupted reference run at the same command count,
//     so OpResize replay reproduces every capacity change exactly;
//  4. continuing the storm converges on the reference final state; and
//  5. max tardiness stays ≤ 1 quantum at every command boundary of the
//     reference run and across crash + recovery (Theorem 3, elastic M).
//
// Each storm runs under every crash model (crashModels): a process crash
// at FsyncEvery 3, a power cut at FsyncEvery 1 ("powerloss-seedNN"), and
// one at FsyncEvery 3 ("powerloss-grouped-seedNN"), which may lose acked
// commands within the group commit's window only.
func TestResizeStormCrashRecovery(t *testing.T) {
	for _, m := range crashModels {
		for seed := 0; seed < 50; seed++ {
			seed := seed
			t.Run(m.name+fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
				t.Parallel()
				script := resizeStormScript(int64(seed))

				// Reference: uninterrupted in-memory run; states[k] is the
				// observable state after k journaled commands. Rejected requests
				// journal nothing and so add no state.
				ref := server.New()
				states := []serverState{captureState(t, ref.Handler())}
				counted := []int{} // script index of each counted command
				for i, c := range script {
					code := doCmd(t, ref.Handler(), c.cmd)
					if c.expectReject {
						if code != http.StatusConflict {
							t.Fatalf("reference command %d (%s %s): infeasible request answered %d, want 409",
								i, c.method, c.path, code)
						}
						continue
					}
					if code >= 300 {
						t.Fatalf("reference command %d (%s %s) failed: %d", i, c.method, c.path, code)
					}
					counted = append(counted, i)
					states = append(states, captureState(t, ref.Handler()))
				}
				for k, st := range states {
					for id, ti := range st.Infos {
						if k == len(states)-1 {
							assertTardinessBound(t, "reference final "+id, ti)
						} else {
							assertTardinessBound(t, fmt.Sprintf("reference %s after command %d", id, k), ti)
						}
					}
				}

				// Storm run on a crash-at-byte filesystem.
				dir := t.TempDir()
				budget := int64(64 + seed*seed*200)
				ffs := faultfs.New(faultfs.Options{Seed: int64(seed), CrashAtByte: budget, PowerLoss: m.powerLoss})
				acked, issued := 0, 0
				var w ackWindow
				srvA, err := server.Open(server.Options{
					DataDir: dir, FsyncEvery: m.fsyncEvery(3), FsyncMaxDelay: -1, SnapshotEvery: 16, FS: ffs,
				})
				if err == nil {
				storm:
					for i, c := range script {
						before := srvA.AppliedLSN()
						code := doCmd(t, srvA.Handler(), c.cmd)
						switch {
						case c.expectReject && code == http.StatusConflict:
							// Correctly refused; journals nothing.
						case c.expectReject && code < 300:
							t.Fatalf("storm command %d (%s %s): infeasible shrink/register silently applied (%d)",
								i, c.method, c.path, code)
						case c.expectReject:
							break storm // crash-induced failure (503/500)
						case code < 300:
							issued++
							acked++
							w.acked(srvA, before)
						default:
							issued++
							break storm
						}
					}
					_ = srvA.Close()
				}
				if !ffs.Crashed() && acked < len(counted) {
					t.Fatalf("storm stopped at %d/%d commands without a crash (budget %d)", acked, len(counted), budget)
				}

				// Recover from whatever survived.
				srvB, err := server.Open(server.Options{DataDir: dir, FsyncEvery: 3, SnapshotEvery: 16})
				if err != nil {
					t.Fatalf("recovery Open after crash at byte %d: %v", budget, err)
				}
				defer srvB.Close()
				rec := srvB.Recovery()
				if rec.ReplayErrors != 0 || rec.DispatchMismatches != 0 {
					t.Fatalf("recovery degraded: %d replay errors, %d dispatch mismatches (capacity history diverged?)",
						rec.ReplayErrors, rec.DispatchMismatches)
				}
				if (!m.grouped && rec.Commands < uint64(acked)) || rec.Commands > uint64(issued) {
					t.Fatalf("recovered %d commands outside [acked %d, issued %d]", rec.Commands, acked, issued)
				}
				w.lostWithin(t, 3, rec.Commands)
				got := captureState(t, srvB.Handler())
				assertStateEqual(t, "recovered vs reference prefix",
					normalizeStorm(got), normalizeStorm(states[rec.Commands]))
				for id, ti := range got.Infos {
					assertTardinessBound(t, "recovered "+id, ti)
				}

				// Continue the storm where the recovered prefix ended.
				start := 0
				if rec.Commands > 0 {
					start = counted[rec.Commands-1] + 1
				}
				for i, c := range script[start:] {
					code := doCmd(t, srvB.Handler(), c.cmd)
					if c.expectReject {
						if code != http.StatusConflict {
							t.Fatalf("continuation command %d (%s %s): infeasible request answered %d, want 409",
								start+i, c.method, c.path, code)
						}
						continue
					}
					if code >= 300 {
						t.Fatalf("continuation command %d (%s %s) failed: %d", start+i, c.method, c.path, code)
					}
				}
				final := captureState(t, srvB.Handler())
				assertStateEqual(t, "continuation vs reference final",
					normalizeStorm(final), normalizeStorm(states[len(states)-1]))
				for id, ti := range final.Infos {
					assertTardinessBound(t, "final "+id, ti)
				}
			})
		}
	}
}

package online

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"math/rand"
	"os"
	"regexp"
	"testing"

	"desyncpfair/internal/admission"
	"desyncpfair/internal/model"
	"desyncpfair/internal/prio"
	"desyncpfair/internal/rat"
)

// driveScript applies a deterministic mixed workload to an executive,
// returning every dispatch it produced. Steps are keyed off a seeded rng
// so different seeds give different interleavings of submit/run/drain and
// of grow/shrink resizes (targets 2..4 stay feasible for the Σwt = 17/12
// task set every caller registers).
func driveScript(t *testing.T, e *Executive, tasks []*model.Task, rng *rand.Rand, steps int, from int) []Dispatch {
	t.Helper()
	var out []Dispatch
	e.SetOnDispatch(func(d Dispatch) {
		// A forgetting executive reuses Sub once its task dispatches again.
		sub := *d.Sub
		d.Sub = &sub
		out = append(out, d)
	})
	defer e.SetOnDispatch(nil)
	for i := from; i < steps; i++ {
		switch i % 5 {
		case 0, 1:
			task := tasks[rng.Intn(len(tasks))]
			if err := e.SubmitJob(task, e.Now()); err != nil {
				t.Fatalf("step %d submit: %v", i, err)
			}
		case 2:
			by := rat.New(int64(1+rng.Intn(4)), 2) // 1/2 .. 2
			if err := e.Run(e.Now().Add(by), nil, nil); err != nil {
				t.Fatalf("step %d run: %v", i, err)
			}
		case 3:
			if _, err := e.Drain(nil); err != nil {
				t.Fatalf("step %d drain: %v", i, err)
			}
		case 4:
			if d, err := e.ResizeDrain(2+rng.Intn(3), false); err != nil || d.Outcome != admission.ResizeApplied {
				t.Fatalf("step %d resize: %v %+v", i, err, d)
			}
		}
	}
	return out
}

func key(d Dispatch) [6]string {
	return [6]string{
		d.Sub.Task.Name,
		rat.FromInt(d.Sub.Index).String(),
		rat.FromInt(int64(d.Proc)).String(),
		d.Start.String(),
		d.Finish.String(),
		"",
	}
}

// TestCheckpointRestoreContinuesIdentically pins the determinism contract
// recovery is built on: checkpoint an executive mid-run, restore it, feed
// both the same remaining script — the dispatch sequences must match
// decision for decision. The script includes mid-run Resize calls, so the
// contract covers capacity changes: a checkpoint taken after (or between)
// resizes restores to the resized M and continues identically.
//
// What is restored is the checkpoint the parent of the change that removed
// the event queue wrote at the same cut (testdata/checkpoints_pr20.ndjson,
// one line per seed): it differs from today's bytes only by its "events"
// key, which decoding drops.
func TestCheckpointRestoreContinuesIdentically(t *testing.T) {
	parent, err := os.ReadFile("testdata/checkpoints_pr20.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	withEvents := bytes.Split(bytes.TrimSpace(parent), []byte("\n"))
	events := regexp.MustCompile(`"events":\[[^]]+\],`)
	for seed := int64(0); seed < 20; seed++ {
		// Reference: one uninterrupted run of the full script.
		ref := New(2, nil)
		refTasks := []*model.Task{}
		for _, w := range []model.Weight{model.W(1, 2), model.W(2, 3), model.W(1, 4)} {
			task, err := ref.Register("t"+w.String(), w)
			if err != nil {
				t.Fatal(err)
			}
			refTasks = append(refTasks, task)
		}
		const steps, cut = 40, 17
		rng := rand.New(rand.NewSource(seed))
		refAll := driveScript(t, ref, refTasks, rng, steps, 0)

		// Interrupted: same prefix, checkpoint through JSON (the form that
		// reaches disk), restore, same suffix. The rng must be re-seeded
		// and re-consumed identically, so re-run the prefix on a twin.
		twin := New(2, nil)
		twinTasks := []*model.Task{}
		for _, w := range []model.Weight{model.W(1, 2), model.W(2, 3), model.W(1, 4)} {
			task, _ := twin.Register("t"+w.String(), w)
			twinTasks = append(twinTasks, task)
		}
		rng2 := rand.New(rand.NewSource(seed))
		prefix := driveScript(t, twin, twinTasks, rng2, cut, 0)

		buf, err := json.Marshal(twin.Checkpoint())
		if err != nil {
			t.Fatal(err)
		}
		old := withEvents[seed]
		if !events.Match(old) || !bytes.Equal(events.ReplaceAll(old, nil), buf) {
			t.Fatalf("seed %d: checkpoint is not the parent's less its events:\n got %s\nthen %s", seed, buf, old)
		}
		var cp Checkpoint
		if err := json.Unmarshal(old, &cp); err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(cp)
		if err != nil {
			t.Fatalf("seed %d: Restore: %v", seed, err)
		}
		if !restored.Now().Equal(twin.Now()) {
			t.Fatalf("seed %d: restored now %s != %s", seed, restored.Now(), twin.Now())
		}
		if restored.Pending() != twin.Pending() {
			t.Fatalf("seed %d: restored pending %d != %d", seed, restored.Pending(), twin.Pending())
		}
		if !restored.ActiveUtilization().Equal(twin.ActiveUtilization()) {
			t.Fatalf("seed %d: restored utilization %s != %s", seed, restored.ActiveUtilization(), twin.ActiveUtilization())
		}
		if restored.M() != twin.M() {
			t.Fatalf("seed %d: restored m %d != %d", seed, restored.M(), twin.M())
		}
		// Tasks in a restored executive are new objects; look them up by
		// position (registration order is preserved).
		resTasks := restored.System().Tasks[:len(twinTasks)]
		suffix := driveScript(t, restored, resTasks, rng2, steps, cut)

		if len(prefix)+len(suffix) != len(refAll) {
			t.Fatalf("seed %d: %d+%d dispatches across checkpoint, reference made %d",
				seed, len(prefix), len(suffix), len(refAll))
		}
		for i, d := range refAll {
			var got Dispatch
			if i < len(prefix) {
				got = prefix[i]
			} else {
				got = suffix[i-len(prefix)]
			}
			if key(got) != key(d) {
				t.Fatalf("seed %d: decision %d diverged: got %s[%d] p%d %s→%s, want %s[%d] p%d %s→%s",
					seed, i,
					got.Sub.Task.Name, got.Sub.Index, got.Proc, got.Start, got.Finish,
					d.Sub.Task.Name, d.Sub.Index, d.Proc, d.Start, d.Finish)
			}
		}

		// And the tardiness bound survives the restore (Theorem 3).
		if one := rat.One; one.Less(restored.Schedule().MaxTardiness()) {
			t.Fatalf("seed %d: post-restore tardiness %s > 1", seed, restored.Schedule().MaxTardiness())
		}
	}
}

// TestRestoreRejectsCorruptCheckpoints exercises the validation that makes
// disk input untrusted.
func TestRestoreRejectsCorruptCheckpoints(t *testing.T) {
	e := New(2, nil)
	task, err := e.Register("a", model.W(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitJob(task, rat.Zero); err != nil {
		t.Fatal(err)
	}
	good := e.Checkpoint()

	mutate := []struct {
		name string
		fn   func(cp *Checkpoint)
	}{
		{"unknown policy", func(cp *Checkpoint) { cp.Policy = "FIFO" }},
		{"bad m", func(cp *Checkpoint) { cp.M = 0 }},
		{"freeAt length", func(cp *Checkpoint) { cp.FreeAt = cp.FreeAt[:1] }},
		{"bad now", func(cp *Checkpoint) { cp.Now = "not-a-rat" }},
		{"bad weight", func(cp *Checkpoint) { cp.Tasks[0].E = 0 }},
		{"cursor out of range", func(cp *Checkpoint) { cp.Tasks[0].Cursor = 99 }},
		{"pending mismatch", func(cp *Checkpoint) { cp.Pending += 1 }},
		{"overload", func(cp *Checkpoint) {
			cp.Tasks = append(cp.Tasks, TaskCheckpoint{Name: "b", E: 9, P: 4, Active: true, LastFin: "0", NextIdx: 1})
		}},
		{"theta regression", func(cp *Checkpoint) {
			cp.Tasks[0].Subs = append(cp.Tasks[0].Subs, SubtaskCheckpoint{Index: 99, Theta: -5})
			cp.Pending++
		}},
	}
	for _, m := range mutate {
		t.Run(m.name, func(t *testing.T) {
			buf, _ := json.Marshal(good)
			var cp Checkpoint
			if err := json.Unmarshal(buf, &cp); err != nil {
				t.Fatal(err)
			}
			m.fn(&cp)
			if _, err := Restore(cp); err == nil {
				t.Fatalf("Restore accepted a checkpoint with %s", m.name)
			}
		})
	}

	// The unmutated original restores fine.
	if _, err := Restore(good); err != nil {
		t.Fatalf("Restore rejected a healthy checkpoint: %v", err)
	}
}

// TestForgetHistoryChangesNoDecision pins retention as invisible to
// scheduling: an executive that forgets behind its cursors and one that
// keeps everything, fed the same script (submits, runs, drains, resizes),
// make the same decisions and write byte-identical checkpoints all along —
// 4 policies × 5 seeds — while the forgetful one holds no assignment and at
// most twice each task's live window of subtasks.
func TestForgetHistoryChangesNoDecision(t *testing.T) {
	weights := []model.Weight{model.W(1, 2), model.W(2, 3), model.W(1, 4)}
	for _, pol := range []prio.Policy{prio.PD2{}, prio.PD{}, prio.PF{}, prio.EPDF{}} {
		for seed := int64(0); seed < 5; seed++ {
			keep, drop := New(2, pol), New(2, pol)
			drop.ForgetHistory()
			var keepTasks, dropTasks []*model.Task
			for _, w := range weights {
				a, err := keep.Register("t"+w.String(), w)
				if err != nil {
					t.Fatal(err)
				}
				b, _ := drop.Register("t"+w.String(), w)
				keepTasks, dropTasks = append(keepTasks, a), append(dropTasks, b)
			}
			rngK, rngD := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			const steps, stride = 60, 6
			for from := 0; from < steps; from += stride {
				k := driveScript(t, keep, keepTasks, rngK, from+stride, from)
				d := driveScript(t, drop, dropTasks, rngD, from+stride, from)
				if len(k) != len(d) {
					t.Fatalf("%s seed %d steps %d–%d: %d decisions retaining, %d forgetting", pol.Name(), seed, from, from+stride, len(k), len(d))
				}
				for i := range k {
					if key(k[i]) != key(d[i]) {
						t.Fatalf("%s seed %d: decision %d diverged: %v vs %v", pol.Name(), seed, k[i].Decision, key(k[i]), key(d[i]))
					}
				}
				ck, _ := json.Marshal(keep.Checkpoint())
				cd, _ := json.Marshal(drop.Checkpoint())
				if sha256.Sum256(ck) != sha256.Sum256(cd) {
					t.Fatalf("%s seed %d after step %d: checkpoints differ\nretaining  %s\nforgetting %s", pol.Name(), seed, from+stride, ck, cd)
				}
				for _, task := range dropTasks {
					if held, live := len(drop.System().Subtasks(task)), drop.Undispatched(task)+1; held > 2*live {
						t.Fatalf("%s seed %d: %s holds %d subtasks for a live window of %d", pol.Name(), seed, task, held, live)
					}
				}
			}
			ks, ds := keep.Schedule(), drop.Schedule()
			if ds.Assignments() != nil || ks.Len() == 0 || len(ks.Assignments()) != ks.Len() {
				t.Fatalf("%s seed %d: retention wrong: %d kept of %d, %d kept after ForgetHistory", pol.Name(), seed, len(ks.Assignments()), ks.Len(), len(ds.Assignments()))
			}
			if ds.Len() != ks.Len() || ds.MaxTardiness() != ks.MaxTardiness() || ds.Makespan() != ks.Makespan() ||
				ds.BusyTime() != ks.BusyTime() || ds.MissCount() != ks.MissCount() {
				t.Fatalf("%s seed %d: aggregates differ", pol.Name(), seed)
			}
		}
	}
}

// TestCheckpointCarriesQueuedShrink: a queued drain-mode shrink survives
// Checkpoint and Restore. M = 3 with three tasks of weight 1 queues a
// shrink to 1; after one unregister (Σwt = 2, still above the target) the
// original refuses a 1/2 task against the target, and so must the
// restored executive.
func TestCheckpointCarriesQueuedShrink(t *testing.T) {
	e := New(3, nil)
	for _, name := range []string{"a", "b", "c"} {
		if _, err := e.Register(name, model.W(1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if d, err := e.ResizeDrain(1, true); err != nil || d.Outcome != admission.ResizeQueued {
		t.Fatalf("drain to 1: %v %+v", err, d)
	}
	r, err := Restore(e.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range []*Executive{e, r} {
		if ex.PendingM() != 1 {
			t.Fatalf("PendingM() = %d, want 1", ex.PendingM())
		}
		if err := ex.Unregister(ex.Task("a")); err != nil {
			t.Fatal(err)
		}
		if _, err := ex.Register("half", model.W(1, 2)); err == nil {
			t.Fatal("a 1/2 task was admitted at Σwt = 2 against a queued target of 1")
		}
		if ex.M() != 3 || ex.PendingM() != 1 {
			t.Fatalf("m = %d, pendingM = %d; want 3 and 1", ex.M(), ex.PendingM())
		}
	}
}

// TestRestoreValidatesPendingM: a checkpoint's pendingM is untrusted input.
// Only a target the ledger would queue — 0 < pendingM < m with Σwt above
// it — restores; with m = 3 and Σwt = 2 that is 1 alone.
func TestRestoreValidatesPendingM(t *testing.T) {
	e := New(3, nil)
	for _, name := range []string{"a", "b"} {
		if _, err := e.Register(name, model.W(1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	cp := e.Checkpoint()
	for pending, ok := range map[int]bool{0: true, 1: true, 2: false, 3: false, 4: false, -1: false, MaxM + 1: false} {
		cp.PendingM = pending
		r, err := Restore(cp)
		if (err == nil) != ok {
			t.Errorf("pendingM = %d: err = %v, want restorable = %v", pending, err, ok)
		}
		if err == nil && (r.PendingM() != pending || r.M() != 3) {
			t.Errorf("pendingM = %d restored as m = %d, pendingM = %d", pending, r.M(), r.PendingM())
		}
	}
}

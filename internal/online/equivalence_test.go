package online_test

// Tests that pin the executive to the offline engines. internal/core's
// RunDVQ is a driver over the executive, so core imports online and these
// live in the external test package.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"desyncpfair/internal/core"
	"desyncpfair/internal/gen"
	"desyncpfair/internal/model"
	"desyncpfair/internal/online"
	"desyncpfair/internal/prio"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/sched"
)

// Submitting jobs exactly at their period boundaries reproduces the
// synchronous periodic window pattern, and the executive's dispatch matches
// the offline DVQ engine exactly.
func TestPeriodicSubmissionMatchesOfflineDVQ(t *testing.T) {
	weights := []model.Weight{model.W(1, 2), model.W(3, 4), model.W(1, 4), model.W(1, 2)}
	const m, horizon = 2, 12

	ex := online.New(m, nil)
	tasks := make([]*model.Task, len(weights))
	for i, w := range weights {
		task, err := ex.Register(string(rune('A'+i)), w)
		if err != nil {
			t.Fatal(err)
		}
		tasks[i] = task
	}
	y := gen.UniformYield(17, 8)
	// Submit each task's jobs at its period boundaries, advancing time.
	for slot := int64(0); slot < horizon; slot++ {
		for i, w := range weights {
			if slot%w.P == 0 {
				if err := ex.SubmitJob(tasks[i], rat.FromInt(slot)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := ex.Run(rat.FromInt(slot+1), yieldByLabel(y), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ex.Drain(yieldByLabel(y)); err != nil {
		t.Fatal(err)
	}
	if err := ex.System().Validate(); err != nil {
		t.Fatalf("generated system invalid: %v", err)
	}
	if err := ex.Schedule().ValidateDVQ(); err != nil {
		t.Fatal(err)
	}

	// Offline reference on the equivalent periodic system.
	ref := model.Periodic(weights, horizon)
	refSched, err := core.RunDVQReference(ref, core.DVQOptions{M: m, Yield: yieldByLabel(y)})
	if err != nil {
		t.Fatal(err)
	}
	// Compare per-subtask start times through (task name, index) keys.
	refStarts := map[string]rat.Rat{}
	for _, a := range refSched.Assignments() {
		refStarts[a.Sub.String()] = a.Start
	}
	for _, a := range ex.Schedule().Assignments() {
		want, ok := refStarts[a.Sub.String()]
		if !ok {
			t.Fatalf("online dispatched %s, absent offline", a.Sub)
		}
		if !a.Start.Equal(want) {
			t.Errorf("%s online at %s, offline at %s", a.Sub, a.Start, want)
		}
	}
	if ex.Schedule().Len() != refSched.Len() {
		t.Errorf("dispatched %d, offline %d", ex.Schedule().Len(), refSched.Len())
	}
}

// yieldByLabel makes a yield function keyed by the subtask's (name, index)
// label so online and offline runs (distinct Subtask pointers and task IDs)
// see identical costs.
func yieldByLabel(base sched.YieldFn) sched.YieldFn {
	type key struct {
		name string
		idx  int64
	}
	memo := map[key]rat.Rat{}
	return func(s *model.Subtask) rat.Rat {
		k := key{s.Task.Name, s.Index}
		if c, ok := memo[k]; ok {
			return c
		}
		// Derive deterministically from the label, not the pointer: rehash
		// through a fixed fake subtask identity.
		fake := &model.Subtask{Task: &model.Task{ID: int(k.name[0])}, Index: k.idx}
		c := base(fake)
		memo[k] = c
		return c
	}
}

// TestExecutiveMatchesReference pins the executive itself — not only
// core.RunDVQ's adopt-and-run use of it — to the seed oracle. Each case
// drives an executive the way the service does: periodic and sporadic
// SubmitJob/SubmitJobEarly calls, Run to integral and mid-slot times with
// fractional yields, jobs submitted at a fractional now, Unregister of
// finished tasks with replacements registered in their place, and Resize.
// Whatever the interleaving, the release pattern it leaves in ex.System()
// is an ordinary GIS system, and every job is submitted before virtual
// time reaches its arrival (a job submitted at an integral now, after Run
// has made that instant's decisions, is the one thing hindsight would
// schedule differently), so RunDVQReference over that system must make
// the same decisions, assignment for assignment.
//
// The oracle's M is fixed, so each Resize episode is a grow at a slot
// boundary followed — after that slot's submissions, before any Run — by a
// feasible shrink back: capacity over time is unchanged, but the shrink
// keeps the latest-free processors and renumbers them, so from the first
// episode on everything but the processor index is compared.
//
// Each case then runs the same script a second time through a mid-run
// Checkpoint → JSON → Restore (slot 17: between the two Resize episodes,
// with work in flight and retired tasks in the system). A restored
// executive holds none of its dispatched history, so it cannot be handed
// to the oracle itself; its decisions are compared, one by one, with the
// uninterrupted run's, which the oracle has just vouched for.
//
// The last two inputs draw each cost from mutually coprime denominators —
// 3, 7 and 2³¹ or 2³¹+1 — so the times the executive orders (freeAt,
// activations, now) sit on no common small grid and compare by cross
// multiplication. The two large ones cannot share a run: exact int64
// rationals cannot even hold 1/3 + 1/2³¹ + 1/(2³¹+1).
func TestExecutiveMatchesReference(t *testing.T) {
	// cycle hands each subtask one of costs by its (task, index), the
	// identity a restored executive's subtasks share with the live one's.
	cycle := func(costs ...rat.Rat) sched.YieldFn {
		return func(s *model.Subtask) rat.Rat { return costs[(31*s.Task.ID+int(s.Index))%len(costs)] }
	}
	for _, cfg := range []struct {
		n, m int
		q    int64
		y    sched.YieldFn
		tag  string
	}{
		{64, 4, 20, gen.UniformYield(7, 8), ""}, {64, 16, 12, gen.UniformYield(7, 8), ""},
		{1024, 4, 512, gen.UniformYield(7, 8), ""}, {1024, 16, 128, gen.UniformYield(7, 8), ""},
		{64, 4, 20, cycle(rat.New(1, 3), rat.New(1, 1<<31), rat.New(5, 7), rat.One), "_den2p31"},
		{64, 4, 20, cycle(rat.New(1, 3), rat.New(1, 1<<31+1), rat.New(5, 7), rat.One), "_den2p31plus1"},
	} {
		for _, pol := range prio.All() {
			t.Run(fmt.Sprintf("N%d_M%d_%s%s", cfg.n, cfg.m, pol.Name(), cfg.tag), func(t *testing.T) {
				want := matchReference(t, cfg.n, cfg.m, cfg.q, pol, cfg.y, -1)
				got := matchReference(t, cfg.n, cfg.m, cfg.q, pol, cfg.y, 17)
				if len(got) != len(want) {
					t.Fatalf("through a restore the executive made %d decisions, uninterrupted %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("decision %d: through a restore %s, uninterrupted %s", i+1, got[i], want[i])
					}
				}
			})
		}
	}
}

// matchReference drives one executive through the script and returns its
// decisions in order. With restoreAt < 0 it also pins them to the oracle;
// otherwise the executive is replaced, at the start of slot restoreAt, by
// one restored from its checkpoint.
func matchReference(t *testing.T, n, m int, q int64, pol prio.Policy, y sched.YieldFn, restoreAt int64) (decisions []string) {
	rng := rand.New(rand.NewSource(int64(31*n + m)))
	ex := online.New(m, pol)
	record := func(d online.Dispatch) {
		decisions = append(decisions, fmt.Sprintf("%s p%d %s→%s #%d", d.Sub, d.Proc, d.Start, d.Finish, d.Decision))
	}
	ex.SetOnDispatch(record)
	type client struct {
		task *model.Task
		next int64 // slot of its next job
	}
	clients := make([]client, 0, n)
	for i, w := range gen.GridWeights(rng, n, q, int64(m)*q, gen.MixedWeights) {
		task, err := ex.Register(fmt.Sprintf("t%d", i), w)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, client{task, int64(1 + rng.Intn(8))})
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	renumbered := -1 // decisions made before the first shrink
	retired := []*model.Task{}
	const slots = 40
	for slot := int64(0); slot < slots; slot++ {
		if slot == restoreAt {
			buf, err := json.Marshal(ex.Checkpoint())
			must(err)
			var cp online.Checkpoint
			must(json.Unmarshal(buf, &cp))
			ex, err = online.Restore(cp)
			must(err)
			ex.SetOnDispatch(record)
			// Task identity is positional: a restored system lists the same
			// tasks in the same order.
			for i := range clients {
				clients[i].task = ex.System().Tasks[clients[i].task.ID]
			}
			for i := range retired {
				retired[i] = ex.System().Tasks[retired[i].ID]
			}
		}
		resize := slot == 9 || slot == 26
		if resize {
			must(ex.Resize(m + 2))
			if err := ex.Resize(m - 1); m > 1 && err == nil {
				t.Fatalf("slot %d: shrink below the full utilization %s accepted", slot, ex.ActiveUtilization())
			}
		}
		if slot%7 == 3 { // churn: retire up to three idle tasks, admit same-weight replacements
			for k, swapped := 0, 0; k < len(clients) && swapped < 3; k++ {
				c := &clients[(int(slot)*13+k)%len(clients)]
				if ex.Undispatched(c.task) > 0 {
					continue
				}
				must(ex.Unregister(c.task))
				retired = append(retired, c.task)
				task, err := ex.Register(fmt.Sprintf("r%d.%d", slot, k), c.task.W)
				must(err)
				c.task, c.next = task, slot+1
				swapped++
			}
		}
		next := rat.FromInt(slot + 1) // virtual time is at slot: announce the jobs arriving at slot+1
		for i := range clients {
			c := &clients[i]
			if c.next > slot+1 {
				continue
			}
			if rng.Intn(4) == 0 {
				must(ex.SubmitJobEarly(c.task, next, int64(rng.Intn(3))))
			} else {
				must(ex.SubmitJob(c.task, next))
			}
			c.next = slot + 1 + c.task.W.P
			if rng.Intn(8) == 0 {
				c.next += int64(1 + rng.Intn(2)) // sporadic: the next job arrives late
			}
		}
		if resize {
			if renumbered < 0 {
				renumbered = len(decisions)
			}
			must(ex.Resize(m))
		}
		if slot%5 == 2 { // stop mid-slot and release a job at exactly now (it arrives at ⌈now⌉)
			must(ex.Run(rat.New(2*slot+1, 2), y, nil))
			c := &clients[rng.Intn(len(clients))]
			must(ex.SubmitJob(c.task, ex.Now()))
			c.next = max(c.next, slot+1+c.task.W.P)
		}
		must(ex.Run(next, y, nil))
	}
	_, err := ex.Drain(y)
	must(err)
	must(ex.System().Validate())
	for _, task := range retired {
		if ex.Active(task) || ex.Undispatched(task) != 0 {
			t.Fatalf("retired %s: active=%v undispatched=%d", task, ex.Active(task), ex.Undispatched(task))
		}
	}
	if restoreAt >= 0 {
		return decisions
	}

	ref, err := core.RunDVQReference(ex.System(), core.DVQOptions{M: m, Policy: pol, Yield: y})
	must(err)
	got, want := ex.Schedule().Assignments(), ref.Assignments()
	if len(got) != len(want) || len(got) != ex.System().NumSubtasks() {
		t.Fatalf("executive made %d decisions, reference %d, system has %d subtasks", len(got), len(want), ex.System().NumSubtasks())
	}
	for i, a := range got {
		b := want[i]
		if a.Sub != b.Sub || !a.Start.Equal(b.Start) || !a.Cost.Equal(b.Cost) || a.Decision != b.Decision ||
			(i < renumbered && a.Proc != b.Proc) {
			t.Fatalf("decision %d: executive %s on p%d at %s for %s, reference %s on p%d at %s for %s",
				i+1, a.Sub, a.Proc, a.Start, a.Cost, b.Sub, b.Proc, b.Start, b.Cost)
		}
	}
	return decisions
}

// TestRestoreMidBacklog checkpoints a wide executive in the one state where
// a live and a restored engine legally differ inside: Run has just returned
// with more ready heads than processors (the live engine holds them on its
// ready heap, a restored one re-derives them as pending) and a job has
// been submitted at exactly now. From there both must make the same
// decisions and keep writing byte-identical checkpoints — at the restore
// and after continuing, although the live engine still holds every subtask
// it ever released and the restored one only those from each task's last
// dispatched subtask on: that is all a checkpoint carries. The untrimmed
// image written before checkpoints were trimmed (whole sequence, absolute
// cursor) must restore to the same engine.
func TestRestoreMidBacklog(t *testing.T) {
	const n, m, q = 64, 4, 20
	trimmed := 0 // subtasks the live engines held that their checkpoints left out
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		live := online.New(m, nil)
		var tasks []*model.Task
		for i, w := range gen.GridWeights(rng, n, q, m*q, gen.MixedWeights) {
			task, err := live.Register(fmt.Sprintf("t%d", i), w)
			if err != nil {
				t.Fatal(err)
			}
			tasks = append(tasks, task)
		}
		y := gen.UniformYield(seed, 8)
		// drive runs slots [from, to) of one script on ex; tasks are looked
		// up by position so it serves the restored executive's own objects.
		drive := func(ex *online.Executive, rng *rand.Rand, from, to int64) (out []string) {
			rec := func(d online.Dispatch) {
				out = append(out, fmt.Sprintf("%s p%d %s→%s #%d", d.Sub, d.Proc, d.Start, d.Finish, d.Decision))
			}
			own := ex.System().Tasks
			for slot := from; slot < to; slot++ {
				for i, task := range own {
					if slot%task.W.P == int64(i)%task.W.P {
						if err := ex.SubmitJobEarly(task, rat.FromInt(slot), int64(rng.Intn(2))); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := ex.Run(rat.New(2*slot+1, 2), y, rec); err != nil {
					t.Fatal(err)
				}
				if err := ex.SubmitJob(own[rng.Intn(len(own))], ex.Now()); err != nil {
					t.Fatal(err)
				}
				if err := ex.Run(rat.FromInt(slot+1), y, rec); err != nil {
					t.Fatal(err)
				}
			}
			return out
		}
		const cut, end = 9, 20
		drive(live, rng, 0, cut)
		if err := live.SubmitJob(tasks[seed%n], live.Now()); err != nil {
			t.Fatal(err)
		}
		if live.Pending() <= m {
			t.Fatalf("seed %d: only %d pending at the cut; the script no longer leaves a backlog", seed, live.Pending())
		}
		image := func(ex *online.Executive) string {
			buf, err := json.Marshal(ex.Checkpoint())
			if err != nil {
				t.Fatal(err)
			}
			return string(buf)
		}
		var cp online.Checkpoint
		if err := json.Unmarshal([]byte(image(live)), &cp); err != nil {
			t.Fatal(err)
		}
		restored, err := online.Restore(cp)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if image(restored) != image(live) {
			t.Fatalf("seed %d: live and restored checkpoints differ at the restore", seed)
		}
		full := cp // the parent format, rebuilt from the live engine's whole system
		full.Tasks = append([]online.TaskCheckpoint(nil), cp.Tasks...)
		for i, task := range live.System().Tasks {
			seq := live.System().Subtasks(task)
			tc := &full.Tasks[i]
			if tc.Cursor > 1 || len(tc.Subs) > len(seq) {
				t.Fatalf("seed %d: task %s checkpointed cursor %d over %d of %d subtasks; want the sequence from the last dispatched one", seed, task, tc.Cursor, len(tc.Subs), len(seq))
			}
			trimmed += len(seq) - len(tc.Subs)
			tc.Cursor += len(seq) - len(tc.Subs)
			tc.Subs = nil
			for _, s := range seq {
				tc.Subs = append(tc.Subs, online.SubtaskCheckpoint{Index: s.Index, Theta: s.Theta, Elig: s.Elig})
			}
		}
		fromFull, err := online.Restore(full)
		if err != nil {
			t.Fatalf("seed %d: untrimmed checkpoint: %v", seed, err)
		}
		if image(fromFull) != image(live) {
			t.Fatalf("seed %d: an engine restored from the untrimmed checkpoint writes a different checkpoint", seed)
		}
		suffixSeed := rng.Int63()
		want := drive(live, rand.New(rand.NewSource(suffixSeed)), cut, end)
		got := drive(restored, rand.New(rand.NewSource(suffixSeed)), cut, end)
		if len(got) != len(want) {
			t.Fatalf("seed %d: restored made %d decisions after the cut, live %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: decision %d after the cut: restored %s, live %s", seed, i, got[i], want[i])
			}
		}
		if image(restored) != image(live) {
			t.Fatalf("seed %d: checkpoints diverge after continuing from the restore", seed)
		}
	}
	if trimmed == 0 {
		t.Fatal("no checkpoint left out a single dispatched subtask; the script no longer exercises trimming")
	}
}

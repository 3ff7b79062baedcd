package online

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"desyncpfair/internal/gen"
	"desyncpfair/internal/model"
	"desyncpfair/internal/rat"
)

func TestRegisterAdmissionControl(t *testing.T) {
	ex := New(2, nil)
	if _, err := ex.Register("a", model.W(1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Register("b", model.W(1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Register("c", model.W(1, 100)); err == nil {
		t.Error("utilization 2 + 1/100 on M=2 accepted")
	}
	if _, err := ex.Register("bad", model.W(3, 2)); err == nil {
		t.Error("invalid weight accepted")
	}
}

func TestNewPanicsOnBadM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(0, nil)
}

// Sporadic arrivals: jobs submitted late produce right-shifted (IS) windows
// and the Theorem 3 bound still holds.
func TestSporadicArrivalsBoundHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		ex := New(2, nil)
		weights := []model.Weight{model.W(1, 2), model.W(1, 2), model.W(1, 3), model.W(2, 3)}
		tasks := make([]*model.Task, len(weights))
		for i, w := range weights {
			task, err := ex.Register(string(rune('A'+i)), w)
			if err != nil {
				t.Fatal(err)
			}
			tasks[i] = task
		}
		y := gen.UniformYield(int64(trial), 8)
		next := make([]int64, len(weights))
		for slot := int64(0); slot < 24; slot++ {
			for i, w := range weights {
				if slot >= next[i] {
					if err := ex.SubmitJob(tasks[i], rat.FromInt(slot)); err != nil {
						t.Fatal(err)
					}
					next[i] = slot + w.P + rng.Int63n(3) // sporadic: ≥ period apart
				}
			}
			if err := ex.Run(rat.FromInt(slot+1), y, nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ex.Drain(y); err != nil {
			t.Fatal(err)
		}
		if err := ex.System().Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := ex.Schedule().ValidateDVQ(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := ex.Schedule().MaxTardiness(); rat.One.Less(got) {
			t.Fatalf("trial %d: online tardiness %s > 1", trial, got)
		}
	}
}

func TestSubmitJobRejectsPast(t *testing.T) {
	ex := New(1, nil)
	task, err := ex.Register("T", model.W(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.SubmitJob(task, rat.Zero); err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(rat.FromInt(5), nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := ex.SubmitJob(task, rat.FromInt(3)); err == nil {
		t.Error("submission in the past accepted")
	}
}

func TestRunRejectsBackwards(t *testing.T) {
	ex := New(1, nil)
	if err := ex.Run(rat.FromInt(5), nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(rat.FromInt(4), nil, nil); err == nil {
		t.Error("running backwards accepted")
	}
}

func TestDispatchCallbackAndPending(t *testing.T) {
	ex := New(1, nil)
	task, err := ex.Register("T", model.W(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.SubmitJob(task, rat.Zero); err != nil {
		t.Fatal(err)
	}
	if ex.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 (weight 1/2 job has one subtask)", ex.Pending())
	}
	var got []Dispatch
	if err := ex.Run(rat.FromInt(4), nil, func(d Dispatch) { got = append(got, d) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Sub.Index != 1 || !got[0].Start.Equal(rat.Zero) {
		t.Errorf("dispatches = %+v", got)
	}
	if ex.Pending() != 0 {
		t.Errorf("pending = %d after drain", ex.Pending())
	}
	if !ex.Now().Equal(rat.FromInt(4)) {
		t.Errorf("now = %s, want 4", ex.Now())
	}
}

// A mid-slot submission rounds to the next boundary (windows are integral).
func TestMidSlotSubmissionRoundsUp(t *testing.T) {
	ex := New(1, nil)
	task, err := ex.Register("T", model.W(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(rat.New(5, 2), nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := ex.SubmitJob(task, rat.New(5, 2)); err != nil {
		t.Fatal(err)
	}
	seq := ex.System().Subtasks(task)
	if len(seq) != 1 || seq[0].Release() != 3 {
		t.Fatalf("release = %d, want 3 (⌈5/2⌉)", seq[0].Release())
	}
}

// Back-to-back bursty submission (several jobs queued at once) serializes
// correctly through the IS offsets.
func TestBurstSubmission(t *testing.T) {
	ex := New(1, nil)
	task, err := ex.Register("T", model.W(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		if err := ex.SubmitJob(task, rat.Zero); err != nil {
			t.Fatal(err)
		}
	}
	if err := ex.System().Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Drain(nil); err != nil {
		t.Fatal(err)
	}
	// Three jobs of cost 2 on one processor at weight 1/2: windows follow
	// the periodic pattern (offsets never decrease, releases every 2).
	seq := ex.System().Subtasks(task)
	if len(seq) != 6 {
		t.Fatalf("subtasks = %d", len(seq))
	}
	for k := 1; k < len(seq); k++ {
		if seq[k].Release() < seq[k-1].Release() {
			t.Error("releases decreased")
		}
	}
	if got := ex.Schedule().MaxTardiness(); rat.One.Less(got) {
		t.Errorf("burst tardiness %s > 1", got)
	}
}

func TestDrainOnEmptyExecutive(t *testing.T) {
	ex := New(2, nil)
	if _, err := ex.Drain(nil); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitJobEarly(t *testing.T) {
	ex := New(1, nil)
	task, err := ex.Register("T", model.W(2, 6))
	if err != nil {
		t.Fatal(err)
	}
	// Job arrives at 0; second subtask's release is 3, eligibility pulled
	// to 1 with earliness 2.
	if err := ex.SubmitJobEarly(task, rat.Zero, 2); err != nil {
		t.Fatal(err)
	}
	seq := ex.System().Subtasks(task)
	if len(seq) != 2 {
		t.Fatalf("subtasks = %d", len(seq))
	}
	if seq[1].Release() != 3 || seq[1].Elig != 1 {
		t.Errorf("T_2 r=%d e=%d, want r=3 e=1", seq[1].Release(), seq[1].Elig)
	}
	if err := ex.System().Validate(); err != nil {
		t.Fatal(err)
	}
	// On an otherwise idle processor, the early-released subtask runs well
	// before its pseudo-release.
	if _, err := ex.Drain(nil); err != nil {
		t.Fatal(err)
	}
	a := ex.Schedule().Of(seq[1])
	if !a.Start.Equal(rat.One) {
		t.Errorf("T_2 started at %s, want 1 (early released)", a.Start)
	}
	if err := ex.SubmitJobEarly(task, rat.FromInt(6), -1); err == nil {
		t.Error("negative earliness accepted")
	}
}

// Eligibility never precedes the arrival even with large earliness.
func TestSubmitJobEarlyClampsToArrival(t *testing.T) {
	ex := New(1, nil)
	task, err := ex.Register("T", model.W(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(rat.FromInt(5), nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := ex.SubmitJobEarly(task, rat.FromInt(5), 100); err != nil {
		t.Fatal(err)
	}
	sub := ex.System().Subtasks(task)[0]
	if sub.Elig != 5 {
		t.Errorf("eligibility %d, want clamped to arrival 5", sub.Elig)
	}
}

// FuzzExecutive drives random register/submit/run sequences through the
// online executive and asserts the structural invariants and the Theorem 3
// bound on whatever was dispatched.
func FuzzExecutive(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(4))
	f.Add(int64(9), uint8(2), uint8(8))
	f.Add(int64(-3), uint8(1), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, mRaw, steps uint8) {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + int(mRaw%3)
		ex := New(m, nil)
		var tasks []*model.Task
		now := int64(0)
		for step := 0; step < int(steps%24)+1; step++ {
			switch rng.Intn(4) {
			case 0: // register (may be refused by admission control)
				p := int64(2 + rng.Intn(5))
				e := 1 + rng.Int63n(p)
				if task, err := ex.Register("t", model.W(e, p)); err == nil {
					tasks = append(tasks, task)
				}
			case 1: // submit, possibly early-released
				if len(tasks) > 0 {
					task := tasks[rng.Intn(len(tasks))]
					if rng.Intn(2) == 0 {
						_ = ex.SubmitJob(task, rat.FromInt(now))
					} else {
						_ = ex.SubmitJobEarly(task, rat.FromInt(now), rng.Int63n(3))
					}
				}
			default: // advance time
				now += rng.Int63n(3) + 1
				if err := ex.Run(rat.FromInt(now), gen.UniformYield(seed, 8), nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := ex.Drain(gen.UniformYield(seed, 8)); err != nil {
			t.Fatal(err)
		}
		if err := ex.System().Validate(); err != nil {
			t.Fatalf("executive built an invalid system: %v", err)
		}
		if err := ex.Schedule().ValidateDVQ(); err != nil {
			t.Fatal(err)
		}
		if got := ex.Schedule().MaxTardiness(); rat.One.Less(got) {
			t.Fatalf("online tardiness %s > 1", got)
		}
	})
}

// TestUnregisteredTasksCostNothing pins the engine's cost model: a task
// with no released work is in neither heap, so ten thousand tasks that
// came, ran and were unregistered around eight live ones must not slow a
// decision down — the scan this engine replaced visited every one of them
// on every decision, a thousandfold slowdown here. The 2× allowance is for
// timer noise (fastest of five interleaved repetitions each).
func TestUnregisteredTasksCostNothing(t *testing.T) {
	const live, dead, slots = 8, 10000, 2000
	build := func(dead int) (*Executive, []*model.Task, []*model.Task) {
		ex := New(3, nil) // the live tasks fill two processors; the third admits the passers-by
		var gone, tasks []*model.Task
		retire := func(k int) {
			for i := 0; i < k; i++ {
				task, err := ex.Register(fmt.Sprintf("gone%d", len(gone)), model.W(1, 1000))
				if err != nil {
					t.Fatal(err)
				}
				if err := ex.SubmitJob(task, ex.Now()); err != nil {
					t.Fatal(err)
				}
				if err := ex.Run(ex.Now().Add(rat.One), nil, nil); err != nil { // its one subtask runs at once: a processor is free
					t.Fatal(err)
				}
				if err := ex.Unregister(task); err != nil {
					t.Fatal(err)
				}
				gone = append(gone, task)
			}
		}
		retire(dead / 2)
		for i := 0; i < live; i++ {
			task, err := ex.Register(fmt.Sprintf("live%d", i), model.W(1, 4))
			if err != nil {
				t.Fatal(err)
			}
			tasks = append(tasks, task)
		}
		retire(dead - dead/2)
		return ex, tasks, gone
	}
	run := func(ex *Executive, tasks []*model.Task) time.Duration {
		base := ex.Now().Ceil()
		decided := ex.Schedule().Len()
		start := time.Now()
		for slot := base; slot < base+slots; slot++ {
			if (slot-base)%4 == 0 {
				for _, task := range tasks {
					if err := ex.SubmitJob(task, rat.FromInt(slot)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := ex.Run(rat.FromInt(slot+1), nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		d := time.Since(start)
		if got := ex.Schedule().Len() - decided; got != live*slots/4 {
			t.Fatalf("made %d decisions in %d slots, want %d", got, slots, live*slots/4)
		}
		return d
	}
	alone, aloneTasks, _ := build(0)
	among, amongTasks, gone := build(dead)
	bare, crowded := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for rep := 0; rep < 5; rep++ {
		bare = min(bare, run(alone, aloneTasks))
		crowded = min(crowded, run(among, amongTasks))
	}

	if err := among.SubmitJob(amongTasks[0], among.Now()); err != nil {
		t.Fatal(err)
	}
	if !among.Active(amongTasks[0]) || among.Undispatched(amongTasks[0]) != 1 {
		t.Fatalf("live task: active=%v undispatched=%d, want true, 1", among.Active(amongTasks[0]), among.Undispatched(amongTasks[0]))
	}
	for _, task := range []*model.Task{gone[0], gone[dead/2], gone[dead-1]} {
		if among.Active(task) || among.Undispatched(task) != 0 {
			t.Fatalf("%s: active=%v undispatched=%d, want false, 0", task, among.Active(task), among.Undispatched(task))
		}
		if err := among.SubmitJob(task, among.Now()); err == nil {
			t.Fatalf("%s: job accepted after Unregister", task)
		}
	}
	if crowded > 2*bare {
		t.Fatalf("%d decisions took %v among %d unregistered tasks, %v without them", live*slots/4, crowded, dead, bare)
	}
}

// TestNextEventIsNextDecision pins the derived decision time. After every
// operation of a seeded script — register, submit, early release, grow,
// shrink, drain-mode shrink, unregister, run, with fractional yields and
// fractional run targets — NextEvent must equal what a rescan of every
// task says: the first time from now on at which the earliest processor is
// free and the earliest head has been released and has its predecessor
// behind it. Running to a time before it must dispatch nothing and leave it
// unchanged; running to it must dispatch at least one subtask, and every
// subtask that run dispatches starts exactly then.
func TestNextEventIsNextDecision(t *testing.T) {
	rescan := func(e *Executive) (rat.Rat, bool) {
		var act rat.Rat
		found := false
		for _, task := range e.sys.Tasks {
			if seq := e.sys.Subtasks(task); e.cursor[task.ID] < len(seq) {
				at := rat.Max(rat.FromInt(seq[e.cursor[task.ID]].Elig), e.lastFin[task.ID])
				if !found || at.Less(act) {
					act, found = at, true
				}
			}
		}
		free := e.freeAt[0]
		for _, f := range e.freeAt {
			free = rat.Min(free, f)
		}
		return rat.Max(e.now, rat.Max(free, act)), found
	}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := New(1+rng.Intn(3), nil)
		y := gen.UniformYield(seed, 8)
		var starts []rat.Rat
		e.SetOnDispatch(func(d Dispatch) { starts = append(starts, d.Start) })
		run := func(until rat.Rat) []rat.Rat {
			starts = nil
			if err := e.Run(until, y, nil); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return starts
		}
		var tasks []*model.Task
		decided := 0
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(12); {
			case op == 0: // register; admission may refuse
				p := int64(2 + rng.Intn(5))
				if task, err := e.Register(fmt.Sprintf("t%d", step), model.W(1+rng.Int63n(p), p)); err == nil {
					tasks = append(tasks, task)
				}
			case op <= 3 && len(tasks) > 0: // submit now or a little ahead, perhaps released early
				task := tasks[rng.Intn(len(tasks))]
				if err := e.SubmitJobEarly(task, e.now.Add(rat.New(rng.Int63n(5), 2)), rng.Int63n(3)); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			case op == 4: // grow, shrink or drain-mode shrink; a shrink below Σwt is refused or queued
				if _, err := e.ResizeDrain(max(1, e.M()-1+rng.Intn(3)), rng.Intn(2) == 0); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			case op == 5 && len(tasks) > 0: // unregister an idle task; may apply a queued shrink
				if i := rng.Intn(len(tasks)); e.Undispatched(tasks[i]) == 0 {
					if err := e.Unregister(tasks[i]); err != nil {
						t.Fatalf("seed %d step %d: %v", seed, step, err)
					}
					tasks = append(tasks[:i], tasks[i+1:]...)
				}
			case op == 6: // run past several decisions
				decided += len(run(e.now.Add(rat.New(1+rng.Int63n(8), 4))))
			}
			next, due := e.NextEvent()
			want, wantDue := rescan(e)
			if due != wantDue || due && !next.Equal(want) {
				t.Fatalf("seed %d step %d: NextEvent = %s, %v; a rescan says %s, %v", seed, step, next, due, want, wantDue)
			}
			if due != (e.Pending() > 0) {
				t.Fatalf("seed %d step %d: NextEvent due=%v with %d pending", seed, step, due, e.Pending())
			}
			if !due || rng.Intn(2) == 0 {
				continue
			}
			if e.now.Less(next) {
				if got := run(e.now.Add(next).Mul(rat.New(1, 2))); len(got) != 0 {
					t.Fatalf("seed %d step %d: a run to %s, before the next decision at %s, dispatched %d", seed, step, e.now, next, len(got))
				}
				if again, _ := e.NextEvent(); !again.Equal(next) {
					t.Fatalf("seed %d step %d: next decision moved from %s to %s with nothing dispatched", seed, step, next, again)
				}
			}
			got := run(next)
			if len(got) == 0 {
				t.Fatalf("seed %d step %d: a run to the next decision at %s dispatched nothing", seed, step, next)
			}
			for _, s := range got {
				if !s.Equal(next) {
					t.Fatalf("seed %d step %d: a run to the next decision at %s started a subtask at %s", seed, step, next, s)
				}
			}
			decided += len(got)
		}
		if decided < 50 {
			t.Fatalf("seed %d: only %d decisions; the script no longer exercises the engine", seed, decided)
		}
	}
}

// A checkpoint is untrusted input: one whose released work and free
// processors lie behind its own clock must not make time run backwards.
func TestNextEventNeverBeforeNow(t *testing.T) {
	e := New(1, nil)
	task, err := e.Register("a", model.W(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitJob(task, rat.Zero); err != nil {
		t.Fatal(err)
	}
	cp := e.Checkpoint()
	cp.Now = "10"
	late, err := Restore(cp)
	if err != nil {
		t.Fatal(err)
	}
	if next, due := late.NextEvent(); !due || !next.Equal(rat.FromInt(10)) {
		t.Fatalf("NextEvent = %s, %v; want 10, true", next, due)
	}
	if err := late.Run(rat.FromInt(10), nil, func(d Dispatch) {
		if !d.Start.Equal(rat.FromInt(10)) {
			t.Fatalf("dispatched at %s with the clock at 10", d.Start)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if late.Pending() != 0 {
		t.Fatalf("%d still pending", late.Pending())
	}
}

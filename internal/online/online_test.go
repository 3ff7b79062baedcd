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

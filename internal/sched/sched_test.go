package sched

import (
	"strings"
	"testing"

	"desyncpfair/internal/model"
	"desyncpfair/internal/rat"
)

// twoTask builds a system with two weight-1/2 tasks over one hyperperiod.
func twoTask() *model.System {
	return model.Periodic([]model.Weight{model.W(1, 2), model.W(1, 2)}, 4)
}

func asg(sub *model.Subtask, proc int, start, cost rat.Rat) Assignment {
	return Assignment{Sub: sub, Proc: proc, Start: start, Cost: cost, Decision: -1}
}

func TestAddAndLookup(t *testing.T) {
	sys := twoTask()
	s := New(sys, 1, "test", "SFQ")
	a := sys.Subtasks(sys.Tasks[0])[0]
	added := s.Add(asg(a, 0, rat.Zero, rat.One))
	if s.Of(a) != added {
		t.Error("Of should return the added assignment")
	}
	if s.Len() != 1 || s.Complete() {
		t.Error("length/completeness wrong")
	}
}

func TestAddPanicsOnDuplicate(t *testing.T) {
	sys := twoTask()
	s := New(sys, 1, "test", "SFQ")
	a := sys.Subtasks(sys.Tasks[0])[0]
	s.Add(asg(a, 0, rat.Zero, rat.One))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add did not panic")
		}
	}()
	s.Add(asg(a, 0, rat.One, rat.One))
}

// schedule the two-task system legally on one processor:
// A_1@0, B_1@1, A_2@2, B_2@3.
func legalSFQ(t *testing.T) (*model.System, *Schedule) {
	t.Helper()
	sys := twoTask()
	s := New(sys, 1, "test", "SFQ")
	a := sys.Subtasks(sys.Tasks[0])
	b := sys.Subtasks(sys.Tasks[1])
	s.Add(asg(a[0], 0, rat.Zero, rat.One))
	s.Add(asg(b[0], 0, rat.One, rat.One))
	s.Add(asg(a[1], 0, rat.FromInt(2), rat.One))
	s.Add(asg(b[1], 0, rat.FromInt(3), rat.One))
	return sys, s
}

func TestValidateSFQAccepts(t *testing.T) {
	_, s := legalSFQ(t)
	if err := s.ValidateSFQ(); err != nil {
		t.Errorf("legal SFQ schedule rejected: %v", err)
	}
	if err := s.ValidateDVQ(); err != nil {
		t.Errorf("legal schedule rejected by DVQ check: %v", err)
	}
}

func TestValidatePfairWindowCheck(t *testing.T) {
	_, s := legalSFQ(t)
	// B_1 window is [0,2) but B_1 is scheduled in slot 1 — inside. A_2
	// window [2,4) slot 2 — inside. All good:
	if err := s.ValidatePfair(); err != nil {
		t.Errorf("Pfair-valid schedule rejected: %v", err)
	}

	// Now a schedule with a deadline miss: B_1 in slot 2 (window [0,2)).
	sys := twoTask()
	s2 := New(sys, 1, "test", "SFQ")
	a := sys.Subtasks(sys.Tasks[0])
	b := sys.Subtasks(sys.Tasks[1])
	s2.Add(asg(a[0], 0, rat.Zero, rat.One))
	s2.Add(asg(a[1], 0, rat.One, rat.One)) // A_2 early? window [2,4): violates e
	s2.Add(asg(b[0], 0, rat.FromInt(2), rat.One))
	s2.Add(asg(b[1], 0, rat.FromInt(3), rat.One))
	if err := s2.ValidatePfair(); err == nil {
		t.Error("schedule with window violations accepted")
	}
}

func TestValidateCatchesStructuralErrors(t *testing.T) {
	sys := twoTask()
	a := sys.Subtasks(sys.Tasks[0])
	b := sys.Subtasks(sys.Tasks[1])

	// Incomplete.
	s := New(sys, 1, "test", "SFQ")
	s.Add(asg(a[0], 0, rat.Zero, rat.One))
	if err := s.ValidateSFQ(); err == nil || !strings.Contains(err.Error(), "subtasks scheduled") {
		t.Errorf("incomplete schedule accepted: %v", err)
	}

	// Over capacity: 2 subtasks in one slot on M=1.
	s = New(sys, 1, "test", "SFQ")
	s.Add(asg(a[0], 0, rat.Zero, rat.One))
	s.Add(asg(b[0], 0, rat.Zero, rat.One))
	s.Add(asg(a[1], 0, rat.FromInt(2), rat.One))
	s.Add(asg(b[1], 0, rat.FromInt(3), rat.One))
	if err := s.ValidateSFQ(); err == nil {
		t.Error("over-capacity slot accepted")
	}

	// Same task twice in a slot (parallelism) on M=2.
	s = New(sys, 2, "test", "SFQ")
	s.Add(asg(a[0], 0, rat.FromInt(2), rat.One))
	s.Add(asg(a[1], 1, rat.FromInt(2), rat.One))
	s.Add(asg(b[0], 0, rat.Zero, rat.One))
	s.Add(asg(b[1], 1, rat.FromInt(3), rat.One))
	if err := s.ValidateSFQ(); err == nil {
		t.Error("intra-task parallelism accepted")
	}

	// Start before eligibility.
	s = New(sys, 1, "test", "SFQ")
	s.Add(asg(a[1], 0, rat.Zero, rat.One)) // A_2 eligible at 2
	s.Add(asg(a[0], 0, rat.One, rat.One))
	s.Add(asg(b[0], 0, rat.FromInt(2), rat.One))
	s.Add(asg(b[1], 0, rat.FromInt(3), rat.One))
	if err := s.ValidateSFQ(); err == nil {
		t.Error("pre-eligibility start accepted")
	}

	// Cost outside (0,1].
	s = New(sys, 1, "test", "SFQ")
	s.Add(asg(a[0], 0, rat.Zero, rat.New(3, 2)))
	s.Add(asg(b[0], 0, rat.One, rat.One))
	s.Add(asg(a[1], 0, rat.FromInt(2), rat.One))
	s.Add(asg(b[1], 0, rat.FromInt(3), rat.One))
	if err := s.ValidateSFQ(); err == nil {
		t.Error("cost > 1 accepted")
	}

	// Bad processor index.
	s = New(sys, 1, "test", "SFQ")
	s.Add(asg(a[0], 7, rat.Zero, rat.One))
	s.Add(asg(b[0], 0, rat.One, rat.One))
	s.Add(asg(a[1], 0, rat.FromInt(2), rat.One))
	s.Add(asg(b[1], 0, rat.FromInt(3), rat.One))
	if err := s.ValidateSFQ(); err == nil {
		t.Error("out-of-range processor accepted")
	}
}

func TestValidateDVQOverlap(t *testing.T) {
	sys := twoTask()
	a := sys.Subtasks(sys.Tasks[0])
	b := sys.Subtasks(sys.Tasks[1])
	s := New(sys, 1, "test", "DVQ")
	// A_1 runs [0, 1), B_1 starts at 1/2 on the same processor: overlap.
	s.Add(asg(a[0], 0, rat.Zero, rat.One))
	s.Add(asg(b[0], 0, rat.New(1, 2), rat.One))
	s.Add(asg(a[1], 0, rat.FromInt(2), rat.One))
	s.Add(asg(b[1], 0, rat.FromInt(3), rat.One))
	if err := s.ValidateDVQ(); err == nil {
		t.Error("overlapping execution on one processor accepted")
	}
}

func TestValidateDVQPredecessorOrder(t *testing.T) {
	sys := twoTask()
	a := sys.Subtasks(sys.Tasks[0])
	b := sys.Subtasks(sys.Tasks[1])
	s := New(sys, 2, "test", "DVQ")
	// A_2 (eligible at 2) must also wait for A_1, which here finishes at 5/2.
	s.Add(asg(a[0], 0, rat.New(3, 2), rat.One))
	s.Add(asg(a[1], 1, rat.FromInt(2), rat.One)) // starts before A_1 finishes
	s.Add(asg(b[0], 1, rat.Zero, rat.One))
	s.Add(asg(b[1], 0, rat.FromInt(3), rat.One))
	if err := s.ValidateDVQ(); err == nil {
		t.Error("start before predecessor completion accepted")
	}
}

func TestTardiness(t *testing.T) {
	sys := twoTask()
	a := sys.Subtasks(sys.Tasks[0])
	b := sys.Subtasks(sys.Tasks[1])
	s := New(sys, 1, "test", "DVQ")
	// B_1 (deadline 2) completes at 5/2: tardiness 1/2.
	s.Add(asg(a[0], 0, rat.Zero, rat.One))
	s.Add(asg(b[0], 0, rat.New(3, 2), rat.One))
	s.Add(asg(a[1], 0, rat.New(5, 2), rat.One))
	s.Add(asg(b[1], 0, rat.New(7, 2), rat.New(1, 2)))
	if got, want := s.Tardiness(b[0]), rat.New(1, 2); !got.Equal(want) {
		t.Errorf("tardiness(B_1) = %s, want %s", got, want)
	}
	if got := s.Tardiness(a[0]); got.Sign() != 0 {
		t.Errorf("tardiness(A_1) = %s, want 0", got)
	}
	// A_2 deadline 4, completes 7/2: on time. B_2 deadline 4, completes 4.
	if got, want := s.MaxTardiness(), rat.New(1, 2); !got.Equal(want) {
		t.Errorf("max tardiness = %s, want %s", got, want)
	}
	if got := s.MissCount(); got != 1 {
		t.Errorf("miss count = %d, want 1", got)
	}
}

func TestBusyIdleMakespan(t *testing.T) {
	_, s := legalSFQ(t)
	if got := s.BusyTime(); !got.Equal(rat.FromInt(4)) {
		t.Errorf("busy = %s", got)
	}
	if got := s.Makespan(); !got.Equal(rat.FromInt(4)) {
		t.Errorf("makespan = %s", got)
	}
	if got := s.IdleTime(); got.Sign() != 0 {
		t.Errorf("idle = %s, want 0", got)
	}
}

func TestRanksAndInSlot(t *testing.T) {
	sys := model.Periodic([]model.Weight{model.W(1, 2), model.W(1, 2)}, 2)
	a := sys.Subtasks(sys.Tasks[0])[0]
	b := sys.Subtasks(sys.Tasks[1])[0]
	s := New(sys, 2, "test", "SFQ")
	// Added out of slot order; decisions set explicitly.
	s.Add(Assignment{Sub: b, Proc: 1, Start: rat.One, Cost: rat.One, Decision: 2})
	s.Add(Assignment{Sub: a, Proc: 0, Start: rat.Zero, Cost: rat.One, Decision: 1})
	ranks := s.Ranks()
	if ranks[0] != a || ranks[1] != b {
		t.Errorf("ranks = %v", ranks)
	}
	if got := s.InSlot(1); len(got) != 1 || got[0].Sub != b {
		t.Errorf("InSlot(1) wrong: %v", got)
	}
	if got := s.InSlot(5); len(got) != 0 {
		t.Errorf("InSlot(5) should be empty")
	}
}

func TestDiffAndEqual(t *testing.T) {
	sys := twoTask()
	a := sys.Subtasks(sys.Tasks[0])
	b := sys.Subtasks(sys.Tasks[1])
	mk := func(firstProc int, start rat.Rat) *Schedule {
		s := New(sys, 2, "test", "SFQ")
		s.Add(asg(a[0], firstProc, start, rat.One))
		s.Add(asg(b[0], 1, rat.One, rat.One))
		return s
	}
	s1 := mk(0, rat.Zero)
	s2 := mk(0, rat.Zero)
	if !Equal(s1, s2) {
		t.Error("identical schedules not equal")
	}
	// Different processor.
	s3 := mk(1, rat.Zero)
	ds := Diff(s1, s3)
	if len(ds) != 1 || ds[0].Sub != a[0] {
		t.Errorf("diff = %v", ds)
	}
	if ds[0].String() == "" {
		t.Error("empty diff string")
	}
	// One side unscheduled.
	s4 := New(sys, 2, "test", "SFQ")
	s4.Add(asg(a[0], 0, rat.Zero, rat.One))
	ds = Diff(s1, s4)
	if len(ds) != 1 || ds[0].B != nil {
		t.Errorf("unscheduled diff = %v", ds)
	}
	if got := ds[0].String(); !strings.Contains(got, "unscheduled") {
		t.Errorf("diff string %q", got)
	}
}

func TestDiffPanicsAcrossSystems(t *testing.T) {
	s1 := New(twoTask(), 1, "a", "SFQ")
	s2 := New(twoTask(), 1, "b", "SFQ")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for different systems")
		}
	}()
	Diff(s1, s2)
}

// TestAggregatesMatchScans pins the running aggregates Add maintains —
// count, maximum tardiness, miss count, busy time, makespan — to the scans
// over the assignments they replaced, on the schedules of this file, in a
// retaining schedule and in one that discarded its assignments.
func TestAggregatesMatchScans(t *testing.T) {
	sys := twoTask()
	a, b := sys.Subtasks(sys.Tasks[0]), sys.Subtasks(sys.Tasks[1])
	half := rat.New(1, 2)
	for name, asgs := range map[string][]Assignment{
		"empty":    nil,
		"legalSFQ": {asg(a[0], 0, rat.Zero, rat.One), asg(b[0], 0, rat.One, rat.One), asg(a[1], 0, rat.FromInt(2), rat.One), asg(b[1], 0, rat.FromInt(3), rat.One)},
		"oneMiss":  {asg(a[0], 0, rat.Zero, rat.One), asg(b[0], 0, rat.New(3, 2), rat.One), asg(a[1], 0, rat.New(5, 2), rat.One), asg(b[1], 0, rat.New(7, 2), half)},
		"twoProcsLateYields": {
			asg(a[0], 0, rat.New(5, 3), rat.New(2, 3)), asg(b[0], 1, rat.New(9, 4), rat.New(3, 4)),
			asg(b[1], 1, rat.FromInt(7), half), asg(a[1], 0, rat.New(7, 3), rat.One),
		},
	} {
		kept, dropped := New(sys, 2, "test", "DVQ"), New(sys, 2, "test", "DVQ")
		dropped.DiscardAssignments()
		for _, x := range asgs {
			if kept.Add(x) == nil || dropped.Add(x) != nil {
				t.Fatalf("%s: Add returns the retained copy, and nil once discarded", name)
			}
		}
		maxTard, busy, makespan, misses := rat.Zero, rat.Zero, rat.Zero, 0
		for _, x := range kept.Assignments() {
			tard := kept.Tardiness(x.Sub)
			maxTard = rat.Max(maxTard, tard)
			if tard.Sign() > 0 {
				misses++
			}
			busy = busy.Add(x.Cost)
			makespan = rat.Max(makespan, x.Finish())
		}
		if dropped.Assignments() != nil || dropped.Retains() || !kept.Retains() {
			t.Errorf("%s: retention flags wrong", name)
		}
		for _, s := range []*Schedule{kept, dropped} {
			if s.Len() != len(asgs) || s.MissCount() != misses || s.MaxTardiness() != maxTard ||
				s.BusyTime() != busy || s.Makespan() != makespan {
				t.Errorf("%s (retains=%v): len %d misses %d maxTard %s busy %s makespan %s; scans give %d %d %s %s %s",
					name, s.Retains(), s.Len(), s.MissCount(), s.MaxTardiness(), s.BusyTime(), s.Makespan(),
					len(asgs), misses, maxTard, busy, makespan)
			}
		}
		if err := dropped.ValidateDVQ(); err == nil {
			t.Errorf("%s: a schedule without assignments validated", name)
		}
	}
}

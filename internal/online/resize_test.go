package online

import (
	"fmt"
	"testing"

	"desyncpfair/internal/admission"
	"desyncpfair/internal/model"
	"desyncpfair/internal/rat"
)

func TestResizeValidation(t *testing.T) {
	e := New(2, nil)
	if _, err := e.ResizeDrain(0, false); err == nil {
		t.Fatal("Resize(0) accepted")
	}
	if _, err := e.ResizeDrain(-3, false); err == nil {
		t.Fatal("Resize(-3) accepted")
	}
	if d, err := e.ResizeDrain(2, false); err != nil || d.Outcome != admission.ResizeApplied {
		t.Fatalf("no-op resize failed: %v %+v", err, d)
	}
	if e.M() != 2 {
		t.Fatalf("M() = %d, want 2", e.M())
	}
}

func TestResizeShrinkBelowUtilizationRejected(t *testing.T) {
	e := New(2, nil)
	if _, err := e.Register("a", model.W(1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register("b", model.W(1, 1)); err != nil {
		t.Fatal(err)
	}
	// Σwt = 3/2 > 1: the shrink must be rejected and the state untouched.
	if d, err := e.ResizeDrain(1, false); err == nil && d.Outcome != admission.ResizeRejected {
		t.Fatal("shrink below Σwt accepted")
	}
	if e.M() != 2 || len(e.freeAt) != 2 {
		t.Fatalf("rejected shrink mutated state: m=%d freeAt=%d", e.M(), len(e.freeAt))
	}
	if d, err := e.ResizeDrain(2, false); err != nil || d.Outcome != admission.ResizeApplied {
		t.Fatal(err, d)
	}
}

// TestResizeGrowAddsCapacityAtBoundary: on one processor two weight-1/2
// tasks serialize; after growing to two processors mid-run, released work
// runs in parallel from the next quantum boundary on.
func TestResizeGrowAddsCapacityAtBoundary(t *testing.T) {
	e := New(1, nil)
	a, err := e.Register("a", model.W(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Register("b", model.W(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	var log []Dispatch
	e.SetOnDispatch(func(d Dispatch) { log = append(log, d) })
	for _, task := range []*model.Task{a, b} {
		if err := e.SubmitJob(task, rat.Zero); err != nil {
			t.Fatal(err)
		}
		if err := e.SubmitJob(task, rat.Zero); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(rat.New(1, 2), nil, nil); err != nil { // mid-slot: boundary is 1
		t.Fatal(err)
	}
	if d, err := e.ResizeDrain(2, false); err != nil || d.Outcome != admission.ResizeApplied {
		t.Fatal(err, d)
	}
	if e.M() != 2 || len(e.freeAt) != 2 {
		t.Fatalf("after grow: m=%d freeAt=%d", e.M(), len(e.freeAt))
	}
	if _, err := e.Drain(nil); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending %d after drain", e.Pending())
	}
	// The new processor joined at ⌈1/2⌉ = 1, so two dispatches share a
	// start time from slot 1 on.
	starts := map[string]int{}
	for _, d := range log {
		starts[d.Start.String()]++
	}
	parallel := false
	for _, n := range starts {
		if n > 1 {
			parallel = true
		}
	}
	if !parallel {
		t.Fatalf("no parallel dispatches after grow: %d decisions, starts %v", len(log), starts)
	}
	if one := rat.One; one.Less(e.Schedule().MaxTardiness()) {
		t.Fatalf("tardiness %s > 1 across grow", e.Schedule().MaxTardiness())
	}
}

// TestResizeShrinkKeepsInFlightWork: a feasible shrink drops idle
// processors, keeps the busiest, and the remaining capacity still serves
// everything within the bound.
func TestResizeShrinkKeepsInFlightWork(t *testing.T) {
	e := New(3, nil)
	a, err := e.Register("a", model.W(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitJob(a, rat.Zero); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(rat.New(1, 4), nil, nil); err != nil {
		t.Fatal(err)
	}
	busy := rat.Zero
	for _, f := range e.freeAt {
		busy = rat.Max(busy, f)
	}
	if d, err := e.ResizeDrain(1, false); err != nil || d.Outcome != admission.ResizeApplied {
		t.Fatalf("feasible shrink rejected: %v %+v", err, d)
	}
	if e.M() != 1 || len(e.freeAt) != 1 {
		t.Fatalf("after shrink: m=%d freeAt=%d", e.M(), len(e.freeAt))
	}
	// The kept processor is the busiest one (latest freeAt).
	if !e.freeAt[0].Equal(busy) {
		t.Fatalf("shrink kept freeAt=%s, want the busiest %s", e.freeAt[0], busy)
	}
	if err := e.SubmitJob(a, e.Now()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Drain(nil); err != nil {
		t.Fatal(err)
	}
	if one := rat.One; one.Less(e.Schedule().MaxTardiness()) {
		t.Fatalf("tardiness %s > 1 across shrink", e.Schedule().MaxTardiness())
	}
}

// TestResizeCheckpointRoundTrip: a resized executive checkpoints with the
// new M and restores to identical state.
func TestResizeCheckpointRoundTrip(t *testing.T) {
	e := New(1, nil)
	a, err := e.Register("a", model.W(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitJob(a, rat.Zero); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(rat.New(1, 2), nil, nil); err != nil {
		t.Fatal(err)
	}
	if d, err := e.ResizeDrain(3, false); err != nil || d.Outcome != admission.ResizeApplied {
		t.Fatal(err, d)
	}
	cp := e.Checkpoint()
	if cp.M != 3 || len(cp.FreeAt) != 3 {
		t.Fatalf("checkpoint m=%d freeAt=%d after resize", cp.M, len(cp.FreeAt))
	}
	r, err := Restore(cp)
	if err != nil {
		t.Fatal(err)
	}
	if r.M() != 3 {
		t.Fatalf("restored m=%d", r.M())
	}
}

// FuzzResize drives arbitrary grow/shrink sequences interleaved with
// submits and runs: no input may panic, a shrink below Σwt must always be
// rejected with no state change, and every accepted resize must leave
// m == len(freeAt) and keep the one-quantum tardiness bound.
func FuzzResize(f *testing.F) {
	f.Add([]byte{0, 1, 10, 3, 17, 2, 4})
	f.Add([]byte{0, 0, 9, 1, 1, 25, 2, 33, 4, 8})
	f.Add([]byte{16, 3, 3, 3, 24, 1, 2, 40, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		e := New(2, nil)
		weights := []model.Weight{model.W(1, 2), model.W(2, 3), model.W(1, 4), model.W(1, 1)}
		var tasks []*model.Task
		for _, b := range ops {
			switch b % 5 {
			case 0: // register (admission may reject; either way no panic)
				w := weights[int(b>>3)%len(weights)]
				if task, err := e.Register(fmt.Sprintf("t%d", len(tasks)), w); err == nil {
					tasks = append(tasks, task)
				}
			case 1: // submit
				if len(tasks) > 0 {
					_ = e.SubmitJob(tasks[int(b>>3)%len(tasks)], e.Now())
				}
			case 2: // run forward
				if err := e.Run(e.Now().Add(rat.New(int64(1+int(b>>3)%4), 2)), nil, nil); err != nil {
					t.Fatalf("run: %v", err)
				}
			case 3: // resize
				target := 1 + int(b>>3)%6
				before := e.M()
				d, err := e.ResizeDrain(target, false)
				rejected := err != nil || d.Outcome == admission.ResizeRejected
				infeasible := rat.FromInt(int64(target)).Less(e.ActiveUtilization())
				if infeasible && !rejected {
					t.Fatalf("shrink to %d below Σwt=%s silently applied", target, e.ActiveUtilization())
				}
				if !infeasible && rejected {
					t.Fatalf("feasible resize %d→%d rejected: %v %s", before, target, err, d.Reason)
				}
				if rejected && e.M() != before {
					t.Fatalf("rejected resize mutated m: %d → %d", before, e.M())
				}
				if !rejected && e.M() != target {
					t.Fatalf("accepted resize left m=%d, want %d", e.M(), target)
				}
				if len(e.freeAt) != e.M() {
					t.Fatalf("m=%d but %d freeAt entries", e.M(), len(e.freeAt))
				}
			case 4: // drain
				if _, err := e.Drain(nil); err != nil {
					t.Fatalf("drain: %v", err)
				}
			}
		}
		if _, err := e.Drain(nil); err != nil {
			t.Fatalf("final drain: %v", err)
		}
		if one := rat.One; one.Less(e.Schedule().MaxTardiness()) {
			t.Fatalf("tardiness %s > 1 across resize sequence", e.Schedule().MaxTardiness())
		}
	})
}

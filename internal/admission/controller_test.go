package admission_test

import (
	"fmt"
	"testing"

	"desyncpfair/internal/admission"
	"desyncpfair/internal/model"
	"desyncpfair/internal/online"
	"desyncpfair/internal/rat"
)

// The Σwt ≤ M ledger is online.Executive's; these tests drive it the way
// the service does: plan, then apply what the plan admitted.

// register plans name's registration and applies it when admitted,
// returning the plan's decision.
func register(ex *online.Executive, name string, w model.Weight) (admission.Decision, error) {
	d, err := ex.PlanRegister(name, w)
	if err == nil && d.Admitted {
		_, err = ex.Register(name, w)
	}
	return d, err
}

// unregister releases the active task named name.
func unregister(ex *online.Executive, name string) error {
	t := ex.Task(name)
	if t == nil {
		return fmt.Errorf("no active task %q", name)
	}
	return ex.Unregister(t)
}

// Boundary: total utilization exactly M is feasible (the condition is an
// iff), one grain over is not. With q = 10, filling M = 2 with 19 tasks of
// 1/10 plus one more lands exactly on 2; a twentieth-plus-one of weight
// 1/10 would overflow by 1/q.
func TestControllerBoundaryExactlyM(t *testing.T) {
	const q = 10
	c := online.New(2, nil)
	for i := 0; i < 2*q; i++ {
		d, err := register(c, string(rune('a'+i%26))+string(rune('0'+i/26)), model.W(1, q))
		if err != nil {
			t.Fatal(err)
		}
		if !d.Admitted {
			t.Fatalf("task %d of %d rejected at utilization %s: %s", i+1, 2*q, c.ActiveUtilization(), d.Reason)
		}
	}
	if !c.ActiveUtilization().Equal(rat.FromInt(2)) {
		t.Fatalf("utilization %s, want exactly 2", c.ActiveUtilization())
	}
	if got := c.ActiveTasks(); got != 2*q {
		t.Fatalf("Len() = %d, want %d", got, 2*q)
	}

	// M + 1/q: must reject, and must leave the state untouched.
	d, err := register(c, "straw", model.W(1, q))
	if err != nil {
		t.Fatal(err)
	}
	if d.Admitted {
		t.Fatalf("admitted at utilization M + 1/%d", q)
	}
	if d.Guarantee != admission.NoGuarantee {
		t.Errorf("rejection carries guarantee %v", d.Guarantee)
	}
	if !c.ActiveUtilization().Equal(rat.FromInt(2)) {
		t.Errorf("rejection changed utilization to %s", c.ActiveUtilization())
	}
}

func TestControllerReadmissionAfterUnregister(t *testing.T) {
	c := online.New(1, nil)
	if d, err := register(c, "a", model.W(1, 2)); err != nil || !d.Admitted {
		t.Fatalf("register a: %v %+v", err, d)
	}
	if d, err := register(c, "b", model.W(1, 2)); err != nil || !d.Admitted {
		t.Fatalf("register b: %v %+v", err, d)
	}
	if d, err := register(c, "c", model.W(1, 3)); err != nil || d.Admitted {
		t.Fatalf("register c at full utilization: %v %+v", err, d)
	}
	a := c.Task("a")
	if err := unregister(c, "a"); err != nil {
		t.Fatal(err)
	}
	if err := unregister(c, "a"); err == nil {
		t.Error("double unregister accepted")
	}
	if err := c.Unregister(a); err == nil {
		t.Error("double unregister of the released task accepted")
	}
	d, err := register(c, "c", model.W(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Admitted {
		t.Fatalf("re-admission after unregister rejected: %s", d.Reason)
	}
	if d.Guarantee != admission.SoftRealTime {
		t.Errorf("guarantee %v, want admission.SoftRealTime", d.Guarantee)
	}
	if !c.ActiveUtilization().Equal(rat.One) {
		t.Errorf("utilization %s, want 1", c.ActiveUtilization())
	}
}

func TestControllerRejectsBadInput(t *testing.T) {
	c := online.New(1, nil)
	if _, err := register(c, "", model.W(1, 2)); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := register(c, "a", model.W(3, 2)); err == nil {
		t.Error("weight > 1 accepted")
	}
	if _, err := register(c, "a", model.W(1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := register(c, "a", model.W(1, 4)); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := unregister(c, "ghost"); err == nil {
		t.Error("unregister of unknown task accepted")
	}
	if got := c.ActiveTasks(); got != 1 {
		t.Errorf("ActiveTasks() = %d, want 1", got)
	}
	if got := c.ActiveUtilization(); !got.Equal(rat.New(1, 2)) {
		t.Errorf("ActiveUtilization() = %s, want the one admitted 1/2", got)
	}
}

// Boundary tests for resize: shrinking to exactly m′ = Σwt is feasible
// (the condition is an iff), while Σwt = m′ + 1/q forces a rejection (or
// a queued drain). With q = 10 and 15 tasks of 1/10, Σwt = 3/2: m′ = 2
// applies; after topping up to Σwt = 2 + 1/10, a shrink to 2 is exactly
// 1/q over.
func TestControllerResizeBoundaryExactlyM(t *testing.T) {
	const q = 10
	c := online.New(4, nil)
	for i := 0; i < 2*q; i++ {
		name := string(rune('a'+i%26)) + string(rune('0'+i/26))
		if d, err := register(c, name, model.W(1, q)); err != nil || !d.Admitted {
			t.Fatalf("register %d: %v %+v", i, err, d)
		}
	}
	// Σwt = 2 exactly: shrink to m′ = 2 is feasible.
	d, err := c.ResizeDrain(2, false)
	if err != nil {
		t.Fatal(err)
	}
	if d.Outcome != admission.ResizeApplied || c.M() != 2 {
		t.Fatalf("shrink to exactly Σwt: %+v, m=%d", d, c.M())
	}

	// Grow back and push utilization to m′ + 1/q.
	if d, err = c.ResizeDrain(4, false); err != nil || d.Outcome != admission.ResizeApplied {
		t.Fatalf("grow back: %v %+v", err, d)
	}
	if d2, err := register(c, "straw", model.W(1, q)); err != nil || !d2.Admitted {
		t.Fatalf("register straw: %v %+v", err, d2)
	}
	// Σwt = 2 + 1/q: shrink to 2 must be rejected without drain...
	d, err = c.ResizeDrain(2, false)
	if err != nil {
		t.Fatal(err)
	}
	if d.Outcome != admission.ResizeRejected || c.M() != 4 || c.PendingM() != 0 {
		t.Fatalf("shrink 1/%d over Σwt: %+v, m=%d pending=%d", q, d, c.M(), c.PendingM())
	}
	// ...and queued with drain.
	d, err = c.ResizeDrain(2, true)
	if err != nil {
		t.Fatal(err)
	}
	if d.Outcome != admission.ResizeQueued || c.M() != 4 || c.PendingM() != 2 {
		t.Fatalf("drain shrink 1/%d over Σwt: %+v, m=%d pending=%d", q, d, c.M(), c.PendingM())
	}
	// One unregister of 1/q brings Σwt to exactly 2 ≤ 2: the shrink applies.
	if err := unregister(c, "straw"); err != nil {
		t.Fatal(err)
	}
	if c.M() != 2 || c.PendingM() != 0 {
		t.Fatalf("drain did not apply at exactly m′: m=%d pending=%d", c.M(), c.PendingM())
	}
}

// Re-admission after Unregister must validate against the current M, not
// the construction-time M (the PR 9 fix): after a shrink, freed capacity
// below the old M is gone.
func TestControllerReadmissionUsesCurrentM(t *testing.T) {
	c := online.New(2, nil)
	if d, err := register(c, "a", model.W(1, 1)); err != nil || !d.Admitted {
		t.Fatalf("register a: %v %+v", err, d)
	}
	if d, err := register(c, "b", model.W(1, 1)); err != nil || !d.Admitted {
		t.Fatalf("register b: %v %+v", err, d)
	}
	if err := unregister(c, "b"); err != nil {
		t.Fatal(err)
	}
	if d, err := c.ResizeDrain(1, false); err != nil || d.Outcome != admission.ResizeApplied {
		t.Fatalf("shrink to 1: %v %+v", err, d)
	}
	// Against the construction-time M = 2 this would fit; against the
	// current M = 1 with Σwt = 1 it must not.
	d, err := register(c, "c", model.W(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if d.Admitted {
		t.Fatalf("re-admission validated against construction-time M: %+v", d)
	}
	if err := unregister(c, "a"); err != nil {
		t.Fatal(err)
	}
	if d, err = register(c, "c", model.W(1, 1)); err != nil || !d.Admitted {
		t.Fatalf("register within current M: %v %+v", err, d)
	}
}

// While a drain-mode shrink is pending, new registrations are gated by
// the pending target, not the still-current M — otherwise the drain
// would never converge.
func TestControllerPendingGatesRegistration(t *testing.T) {
	c := online.New(3, nil)
	for _, name := range []string{"a", "b", "c"} {
		if d, err := register(c, name, model.W(1, 1)); err != nil || !d.Admitted {
			t.Fatalf("register %s: %v %+v", name, err, d)
		}
	}
	d, err := c.ResizeDrain(1, true)
	if err != nil || d.Outcome != admission.ResizeQueued {
		t.Fatalf("queue drain: %v %+v", err, d)
	}
	// Σwt = 3 > 1 pending: even a tiny task must be refused against the
	// target of 1, though M is still 3.
	d2, err := register(c, "d", model.W(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	if d2.Admitted {
		t.Fatalf("registration during drain admitted against old M: %+v", d2)
	}
	if err := unregister(c, "a"); err != nil {
		t.Fatal(err)
	}
	if c.PendingM() != 1 || c.M() != 3 {
		t.Fatalf("drain applied early: m=%d pending=%d util=%s", c.M(), c.PendingM(), c.ActiveUtilization())
	}
	if err := unregister(c, "b"); err != nil {
		t.Fatal(err)
	}
	if err := unregister(c, "c"); err != nil {
		t.Fatal(err)
	}
	if c.M() != 1 || c.PendingM() != 0 {
		t.Fatalf("drain did not apply: m=%d pending=%d", c.M(), c.PendingM())
	}
}

// A grow cancels a pending shrink — the newest target wins — and resize
// input validation mirrors the service boundary.
func TestControllerResizeValidationAndCancel(t *testing.T) {
	c := online.New(2, nil)
	if _, err := c.ResizeDrain(0, false); err == nil {
		t.Error("resize to 0 accepted")
	}
	if _, err := c.ResizeDrain(online.MaxM+1, false); err == nil {
		t.Error("resize beyond MaxM accepted")
	}
	for _, name := range []string{"a", "b"} {
		if d, err := register(c, name, model.W(1, 1)); err != nil || !d.Admitted {
			t.Fatalf("register %s: %v %+v", name, err, d)
		}
	}
	if d, err := c.ResizeDrain(1, true); err != nil || d.Outcome != admission.ResizeQueued {
		t.Fatalf("queue drain: %v %+v", err, d)
	}
	if d, err := c.ResizeDrain(4, false); err != nil || d.Outcome != admission.ResizeApplied {
		t.Fatalf("grow over pending: %v %+v", err, d)
	}
	if c.M() != 4 || c.PendingM() != 0 {
		t.Fatalf("grow left pending shrink: m=%d pending=%d", c.M(), c.PendingM())
	}

	// A tenant restored from a checkpoint reinstates its queued target by
	// asking for the drain again, and the plan enforces the pending
	// invariant: only a target below both m and Σwt queues — anything else
	// would have applied already.
	if d, err := c.ResizeDrain(1, true); err != nil || d.Outcome != admission.ResizeQueued || c.PendingM() != 1 {
		t.Fatalf("reinstate valid pending: %v %+v", err, d)
	}
	if d, err := c.ResizeDrain(4, true); err != nil || d.Outcome == admission.ResizeQueued {
		t.Errorf("pending ≥ m queued: %v %+v", err, d)
	}
	if d, err := c.ResizeDrain(3, true); err != nil || d.Outcome == admission.ResizeQueued {
		t.Errorf("pending ≥ Σwt queued (should have applied): %v %+v", err, d)
	}
}

package admission

import (
	"testing"

	"desyncpfair/internal/model"
	"desyncpfair/internal/rat"
)

// Boundary: total utilization exactly M is feasible (the condition is an
// iff), one grain over is not. With q = 10, filling M = 2 with 19 tasks of
// 1/10 plus one more lands exactly on 2; a twentieth-plus-one of weight
// 1/10 would overflow by 1/q.
func TestControllerBoundaryExactlyM(t *testing.T) {
	const q = 10
	c := NewController(2)
	for i := 0; i < 2*q; i++ {
		d, err := c.Register(string(rune('a'+i%26))+string(rune('0'+i/26)), model.W(1, q))
		if err != nil {
			t.Fatal(err)
		}
		if !d.Admitted {
			t.Fatalf("task %d of %d rejected at utilization %s: %s", i+1, 2*q, c.Utilization(), d.Reason)
		}
	}
	if !c.Utilization().Equal(rat.FromInt(2)) {
		t.Fatalf("utilization %s, want exactly 2", c.Utilization())
	}
	if got := c.Len(); got != 2*q {
		t.Fatalf("Len() = %d, want %d", got, 2*q)
	}

	// M + 1/q: must reject, and must leave the state untouched.
	d, err := c.Register("straw", model.W(1, q))
	if err != nil {
		t.Fatal(err)
	}
	if d.Admitted {
		t.Fatalf("admitted at utilization M + 1/%d", q)
	}
	if d.Guarantee != NoGuarantee {
		t.Errorf("rejection carries guarantee %v", d.Guarantee)
	}
	if !c.Utilization().Equal(rat.FromInt(2)) {
		t.Errorf("rejection changed utilization to %s", c.Utilization())
	}
}

func TestControllerReadmissionAfterUnregister(t *testing.T) {
	c := NewController(1)
	if d, err := c.Register("a", model.W(1, 2)); err != nil || !d.Admitted {
		t.Fatalf("register a: %v %+v", err, d)
	}
	if d, err := c.Register("b", model.W(1, 2)); err != nil || !d.Admitted {
		t.Fatalf("register b: %v %+v", err, d)
	}
	if d, err := c.Register("c", model.W(1, 3)); err != nil || d.Admitted {
		t.Fatalf("register c at full utilization: %v %+v", err, d)
	}
	if err := c.Unregister("a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Unregister("a"); err == nil {
		t.Error("double unregister accepted")
	}
	d, err := c.Register("c", model.W(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Admitted {
		t.Fatalf("re-admission after unregister rejected: %s", d.Reason)
	}
	if d.Guarantee != SoftRealTime {
		t.Errorf("guarantee %v, want SoftRealTime", d.Guarantee)
	}
	if !c.Utilization().Equal(rat.One) {
		t.Errorf("utilization %s, want 1", c.Utilization())
	}
}

func TestControllerRejectsBadInput(t *testing.T) {
	c := NewController(1)
	if _, err := c.Register("", model.W(1, 2)); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := c.Register("a", model.W(3, 2)); err == nil {
		t.Error("weight > 1 accepted")
	}
	if _, err := c.Register("a", model.W(1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register("a", model.W(1, 4)); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := c.Unregister("ghost"); err == nil {
		t.Error("unregister of unknown task accepted")
	}
	if got := len(c.Weights()); got != 1 {
		t.Errorf("Weights() has %d entries, want 1", got)
	}
}

// Boundary tests for resize: shrinking to exactly m′ = Σwt is feasible
// (the condition is an iff), while Σwt = m′ + 1/q forces a rejection (or
// a queued drain). With q = 10 and 15 tasks of 1/10, Σwt = 3/2: m′ = 2
// applies; after topping up to Σwt = 2 + 1/10, a shrink to 2 is exactly
// 1/q over.
func TestControllerResizeBoundaryExactlyM(t *testing.T) {
	const q = 10
	c := NewController(4)
	for i := 0; i < 2*q; i++ {
		name := string(rune('a'+i%26)) + string(rune('0'+i/26))
		if d, err := c.Register(name, model.W(1, q)); err != nil || !d.Admitted {
			t.Fatalf("register %d: %v %+v", i, err, d)
		}
	}
	// Σwt = 2 exactly: shrink to m′ = 2 is feasible.
	d, err := c.Resize(2, false)
	if err != nil {
		t.Fatal(err)
	}
	if d.Outcome != ResizeApplied || c.M() != 2 {
		t.Fatalf("shrink to exactly Σwt: %+v, m=%d", d, c.M())
	}

	// Grow back and push utilization to m′ + 1/q.
	if d, err = c.Resize(4, false); err != nil || d.Outcome != ResizeApplied {
		t.Fatalf("grow back: %v %+v", err, d)
	}
	if d2, err := c.Register("straw", model.W(1, q)); err != nil || !d2.Admitted {
		t.Fatalf("register straw: %v %+v", err, d2)
	}
	// Σwt = 2 + 1/q: shrink to 2 must be rejected without drain...
	d, err = c.Resize(2, false)
	if err != nil {
		t.Fatal(err)
	}
	if d.Outcome != ResizeRejected || c.M() != 4 || c.PendingM() != 0 {
		t.Fatalf("shrink 1/%d over Σwt: %+v, m=%d pending=%d", q, d, c.M(), c.PendingM())
	}
	// ...and queued with drain.
	d, err = c.Resize(2, true)
	if err != nil {
		t.Fatal(err)
	}
	if d.Outcome != ResizeQueued || c.M() != 4 || c.PendingM() != 2 {
		t.Fatalf("drain shrink 1/%d over Σwt: %+v, m=%d pending=%d", q, d, c.M(), c.PendingM())
	}
	// One unregister of 1/q brings Σwt to exactly 2 ≤ 2: the shrink applies.
	if err := c.Unregister("straw"); err != nil {
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
	c := NewController(2)
	if d, err := c.Register("a", model.W(1, 1)); err != nil || !d.Admitted {
		t.Fatalf("register a: %v %+v", err, d)
	}
	if d, err := c.Register("b", model.W(1, 1)); err != nil || !d.Admitted {
		t.Fatalf("register b: %v %+v", err, d)
	}
	if err := c.Unregister("b"); err != nil {
		t.Fatal(err)
	}
	if d, err := c.Resize(1, false); err != nil || d.Outcome != ResizeApplied {
		t.Fatalf("shrink to 1: %v %+v", err, d)
	}
	// Against the construction-time M = 2 this would fit; against the
	// current M = 1 with Σwt = 1 it must not.
	d, err := c.Register("c", model.W(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if d.Admitted {
		t.Fatalf("re-admission validated against construction-time M: %+v", d)
	}
	if err := c.Unregister("a"); err != nil {
		t.Fatal(err)
	}
	if d, err = c.Register("c", model.W(1, 1)); err != nil || !d.Admitted {
		t.Fatalf("register within current M: %v %+v", err, d)
	}
}

// While a drain-mode shrink is pending, new registrations are gated by
// the pending target, not the still-current M — otherwise the drain
// would never converge.
func TestControllerPendingGatesRegistration(t *testing.T) {
	c := NewController(3)
	for _, name := range []string{"a", "b", "c"} {
		if d, err := c.Register(name, model.W(1, 1)); err != nil || !d.Admitted {
			t.Fatalf("register %s: %v %+v", name, err, d)
		}
	}
	d, err := c.Resize(1, true)
	if err != nil || d.Outcome != ResizeQueued {
		t.Fatalf("queue drain: %v %+v", err, d)
	}
	// Σwt = 3 > 1 pending: even a tiny task must be refused against the
	// target of 1, though M is still 3.
	d2, err := c.Register("d", model.W(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	if d2.Admitted {
		t.Fatalf("registration during drain admitted against old M: %+v", d2)
	}
	if err := c.Unregister("a"); err != nil {
		t.Fatal(err)
	}
	if c.PendingM() != 1 || c.M() != 3 {
		t.Fatalf("drain applied early: m=%d pending=%d util=%s", c.M(), c.PendingM(), c.Utilization())
	}
	if err := c.Unregister("b"); err != nil {
		t.Fatal(err)
	}
	if err := c.Unregister("c"); err != nil {
		t.Fatal(err)
	}
	if c.M() != 1 || c.PendingM() != 0 {
		t.Fatalf("drain did not apply: m=%d pending=%d", c.M(), c.PendingM())
	}
}

// A grow cancels a pending shrink — the newest target wins — and resize
// input validation mirrors the service boundary.
func TestControllerResizeValidationAndCancel(t *testing.T) {
	c := NewController(2)
	if _, err := c.Resize(0, false); err == nil {
		t.Error("resize to 0 accepted")
	}
	if _, err := c.Resize(MaxM+1, false); err == nil {
		t.Error("resize beyond MaxM accepted")
	}
	for _, name := range []string{"a", "b"} {
		if d, err := c.Register(name, model.W(1, 1)); err != nil || !d.Admitted {
			t.Fatalf("register %s: %v %+v", name, err, d)
		}
	}
	if d, err := c.Resize(1, true); err != nil || d.Outcome != ResizeQueued {
		t.Fatalf("queue drain: %v %+v", err, d)
	}
	if d, err := c.Resize(4, false); err != nil || d.Outcome != ResizeApplied {
		t.Fatalf("grow over pending: %v %+v", err, d)
	}
	if c.M() != 4 || c.PendingM() != 0 {
		t.Fatalf("grow left pending shrink: m=%d pending=%d", c.M(), c.PendingM())
	}

	// A tenant restored from a checkpoint reinstates its queued target by
	// asking for the drain again, and the plan enforces the pending
	// invariant: only a target below both m and Σwt queues — anything else
	// would have applied already.
	if d, err := c.Resize(1, true); err != nil || d.Outcome != ResizeQueued || c.PendingM() != 1 {
		t.Fatalf("reinstate valid pending: %v %+v", err, d)
	}
	if d, err := c.Resize(4, true); err != nil || d.Outcome == ResizeQueued {
		t.Errorf("pending ≥ m queued: %v %+v", err, d)
	}
	if d, err := c.Resize(3, true); err != nil || d.Outcome == ResizeQueued {
		t.Errorf("pending ≥ Σwt queued (should have applied): %v %+v", err, d)
	}
}

package admission

import (
	"fmt"
	"sort"

	"desyncpfair/internal/model"
	"desyncpfair/internal/rat"
)

// Controller is the stateful counterpart of the analytical tests in this
// package: it tracks the set of currently admitted weights against a fixed
// processor count and answers register/unregister requests online, the way
// a long-running service must. The invariant it maintains is exactly the
// Pfair feasibility condition Σ wt ≤ M, so everything it admits is
// schedulable by PD² under SFQ (hard) and under DVQ with at most one
// quantum of tardiness (Theorem 3).
//
// Controller is not safe for concurrent use. The online executive owns one
// as its ledger, so a server tenant's M, pending M and Σwt live here and
// nowhere else.
type Controller struct {
	m       int
	pending int // queued shrink target (drain mode); 0 when none
	util    rat.Rat
	tasks   map[string]model.Weight
}

// MaxM caps the processor count a resize (or construction, via the
// service boundary that aliases this) may name. The scheduling core uses
// exact int64 rational arithmetic that panics on overflow by design;
// bounding M keeps every capacity comparison far inside the representable
// range.
const MaxM = 1 << 12

// NewController creates a controller for m processors.
func NewController(m int) *Controller {
	if m < 1 {
		panic("admission: m must be ≥ 1")
	}
	return &Controller{m: m, util: rat.Zero, tasks: map[string]model.Weight{}}
}

// M returns the processor count the controller currently admits against.
// While a drain-mode shrink is pending, new registrations are gated by
// PendingM instead, so the count here is the capacity still serving
// already-admitted work.
func (c *Controller) M() int { return c.m }

// PendingM returns the queued drain-mode shrink target, or 0 when no
// shrink is pending. The invariant is pending ≠ 0 ⇒ pending < m and
// Σwt > pending: the moment unregisters bring utilization within the
// target, the shrink applies and pending clears.
func (c *Controller) PendingM() int { return c.pending }

// Utilization returns Σ wt over currently admitted tasks.
func (c *Controller) Utilization() rat.Rat { return c.util }

// Len returns the number of currently admitted tasks.
func (c *Controller) Len() int { return len(c.tasks) }

// Weights returns the admitted weight set in name order (for reports and
// for re-running the analytical tests of this package on the live set).
func (c *Controller) Weights() []model.Weight {
	names := make([]string, 0, len(c.tasks))
	for name := range c.tasks {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]model.Weight, len(names))
	for i, name := range names {
		out[i] = c.tasks[name]
	}
	return out
}

// PlanRegister answers what Register(name, w) would decide without
// changing any state: an error for a duplicate name or an invalid weight,
// otherwise the decision. Callers that journal an admission before
// applying it (the server's tenant loop, through the online executive)
// validate with this first.
//
// Admission is always against the *current* target, not the
// construction-time M: after a resize the cap is the live m, and while a
// drain-mode shrink is pending the cap is the pending target — new work
// must not push utilization further above where we are draining to.
func (c *Controller) PlanRegister(name string, w model.Weight) (Decision, error) {
	if name == "" {
		return Decision{}, fmt.Errorf("admission: empty task name")
	}
	if _, dup := c.tasks[name]; dup {
		return Decision{}, fmt.Errorf("admission: task %q already registered", name)
	}
	if err := w.Validate(); err != nil {
		return Decision{}, err
	}
	cap := c.m
	if c.pending != 0 {
		cap = c.pending
	}
	newTotal := c.util.Add(w.Rat())
	if !model.Feasible(newTotal, cap) {
		return Decision{
			Scheduler: "PD2/DVQ",
			Guarantee: NoGuarantee,
			Reason:    fmt.Sprintf("registering %q (weight %s) would raise Σwt to %s > M = %d", name, w, newTotal, cap),
		}, nil
	}
	return Decision{
		Scheduler: "PD2/DVQ",
		Admitted:  true,
		Guarantee: SoftRealTime,
		Reason:    fmt.Sprintf("Σwt = %s ≤ M = %d; DVQ tardiness ≤ 1 quantum (Theorem 3)", newTotal, cap),
	}, nil
}

// Register admits the named task iff the resulting total utilization stays
// ≤ M (utilization exactly M is admitted — the feasibility condition is an
// iff). Duplicate names and invalid weights are rejected.
func (c *Controller) Register(name string, w model.Weight) (Decision, error) {
	d, err := c.PlanRegister(name, w)
	if err == nil && d.Admitted {
		c.tasks[name] = w
		c.util = c.util.Add(w.Rat())
	}
	return d, err
}

// Unregister releases the named task's capacity so later Register calls
// can reuse it. If a drain-mode shrink is pending and the release brings
// utilization within its target, the shrink applies now: M drops to the
// target and the pending state clears. Callers that size something by M
// (the online executive's processor set) re-read it after every Unregister.
func (c *Controller) Unregister(name string) error {
	w, ok := c.tasks[name]
	if !ok {
		return fmt.Errorf("admission: task %q not registered", name)
	}
	delete(c.tasks, name)
	c.util = c.util.Sub(w.Rat())
	if c.pending != 0 && model.Feasible(c.util, c.pending) {
		c.m = c.pending
		c.pending = 0
	}
	return nil
}

// ResizeOutcome classifies what a Resize request did.
type ResizeOutcome int

const (
	// ResizeApplied: the new M is in effect.
	ResizeApplied ResizeOutcome = iota
	// ResizeQueued: a drain-mode shrink was accepted but Σwt is still above
	// the target; M is unchanged, new registrations are gated by the target,
	// and the shrink applies at the Unregister that brings Σwt within it.
	ResizeQueued
	// ResizeRejected: a non-drain shrink below Σwt; nothing changed.
	ResizeRejected
)

// String implements fmt.Stringer for reports and wire responses.
func (o ResizeOutcome) String() string {
	switch o {
	case ResizeApplied:
		return "applied"
	case ResizeQueued:
		return "queued"
	case ResizeRejected:
		return "rejected"
	}
	return fmt.Sprintf("ResizeOutcome(%d)", int(o))
}

// ResizeDecision reports the result of a Resize or PlanResize call.
type ResizeDecision struct {
	Outcome  ResizeOutcome
	M        int    // effective processor count after the call
	PendingM int    // queued shrink target, 0 if none
	Reason   string // human-readable rationale, always set
}

// PlanResize answers what Resize(m, drain) would do without changing any
// state. The server journals resizes before applying them, and the WAL
// contract requires validation to be complete pre-journal — this is that
// validation.
func (c *Controller) PlanResize(m int, drain bool) (ResizeDecision, error) {
	if m < 1 || m > MaxM {
		return ResizeDecision{}, fmt.Errorf("admission: resize target %d out of range [1, %d]", m, MaxM)
	}
	if m >= c.m {
		return ResizeDecision{
			Outcome: ResizeApplied, M: m,
			Reason: fmt.Sprintf("M %d → %d; Σwt = %s still ≤ M", c.m, m, c.util),
		}, nil
	}
	if !model.Feasible(c.util, m) {
		if drain {
			return ResizeDecision{
				Outcome: ResizeQueued, M: c.m, PendingM: m,
				Reason: fmt.Sprintf("Σwt = %s > %d; draining — shrink applies when unregisters bring Σwt ≤ %d", c.util, m, m),
			}, nil
		}
		return ResizeDecision{
			Outcome: ResizeRejected, M: c.m, PendingM: c.pending,
			Reason: fmt.Sprintf("shrink to M = %d infeasible: Σwt = %s > %d would void the tardiness bound", m, c.util, m),
		}, nil
	}
	return ResizeDecision{
		Outcome: ResizeApplied, M: m,
		Reason: fmt.Sprintf("M %d → %d; Σwt = %s ≤ %d keeps Theorem 3's bound", c.m, m, c.util, m),
	}, nil
}

// Resize re-evaluates the feasibility condition against a new processor
// count and applies it when Σwt ≤ m. A grow always applies (and cancels
// any pending shrink — the newest target wins). A shrink below current
// utilization is rejected, or with drain=true queued as a pending target
// that Unregister applies once utilization allows.
func (c *Controller) Resize(m int, drain bool) (ResizeDecision, error) {
	d, err := c.PlanResize(m, drain)
	if err != nil {
		return d, err
	}
	switch d.Outcome {
	case ResizeApplied:
		c.m = m
		c.pending = 0
	case ResizeQueued:
		c.pending = m
	}
	return d, nil
}

package online

import (
	"fmt"
	"sort"

	"desyncpfair/internal/admission"
	"desyncpfair/internal/model"
	"desyncpfair/internal/rat"
)

// MaxM caps the processor count a resize may name (the service bounds a
// tenant's creation by it too). The executive's exact int64 rationals
// panic on overflow by design; bounding M keeps every capacity comparison
// far inside their range.
const MaxM = 1 << 12

// M returns the current processor count.
func (e *Executive) M() int { return len(e.freeAt) }

// PendingM returns the queued drain-mode shrink target, 0 when none. The
// invariant is PendingM ≠ 0 ⇒ PendingM < M and Σwt > PendingM: the moment
// unregisters bring Σwt within the target, the shrink applies and
// PendingM clears.
func (e *Executive) PendingM() int { return e.shrink }

// PlanResize answers what ResizeDrain(m, drain) would do without changing
// any state (see PlanRegister). Its error, for an m outside [1, MaxM], is
// a bare clause for the caller to prefix.
func (e *Executive) PlanResize(m int, drain bool) (admission.ResizeDecision, error) {
	if m < 1 {
		return admission.ResizeDecision{}, fmt.Errorf("needs m ≥ 1, got %d", m)
	}
	if m > MaxM {
		return admission.ResizeDecision{}, fmt.Errorf("wants m = %d > %d processors", m, MaxM)
	}
	cur := e.M()
	if m >= cur {
		return admission.ResizeDecision{
			Outcome: admission.ResizeApplied, M: m,
			Reason: fmt.Sprintf("M %d → %d; Σwt = %s still ≤ M", cur, m, e.util),
		}, nil
	}
	if !model.Feasible(e.util, m) {
		if drain {
			return admission.ResizeDecision{
				Outcome: admission.ResizeQueued, M: cur, PendingM: m,
				Reason: fmt.Sprintf("Σwt = %s > %d; draining — shrink applies when unregisters bring Σwt ≤ %d", e.util, m, m),
			}, nil
		}
		return admission.ResizeDecision{
			Outcome: admission.ResizeRejected, M: cur, PendingM: e.shrink,
			Reason: fmt.Sprintf("shrink to M = %d infeasible: Σwt = %s > %d would void the tardiness bound", m, e.util, m),
		}, nil
	}
	return admission.ResizeDecision{
		Outcome: admission.ResizeApplied, M: m,
		Reason: fmt.Sprintf("M %d → %d; Σwt = %s ≤ %d keeps Theorem 3's bound", cur, m, e.util, m),
	}, nil
}

// ResizeDrain changes the processor count to m. Capacity changes are safe
// at quantum boundaries because PD²-DVQ recomputes allocations there anyway
// (Cho & Easwaran's flow-network argument), so:
//
//   - A grow adds processors that become free at the next quantum boundary
//     ⌈now⌉ (immediately when now is integral), so stalled pending work is
//     picked up there without waiting for an unrelated completion. It
//     cancels a queued shrink — the newest target wins.
//   - A shrink is admission-checked first: while the active utilization Σwt
//     exceeds m it is rejected, because Theorem 3's tardiness bound would
//     be lost for every admitted task — or, with drain, queued: M stays,
//     registrations are admitted against the target, and the shrink applies
//     at the Unregister that brings Σwt within it. A feasible shrink keeps
//     the m busiest processors (latest freeAt, ties broken by index — a
//     stable, deterministic rule WAL replay reproduces exactly): in-flight
//     quanta run to completion, and from the shrink on at most m new quanta
//     start per slot.
//
// Like every Executive method it must run on the executive's single
// goroutine. A resize to the current m changes nothing but a queued
// shrink, which it cancels.
func (e *Executive) ResizeDrain(m int, drain bool) (admission.ResizeDecision, error) {
	d, err := e.PlanResize(m, drain)
	if err != nil {
		return d, fmt.Errorf("online: resize %w", err)
	}
	switch d.Outcome {
	case admission.ResizeApplied:
		e.fit(m)
		e.shrink = 0
	case admission.ResizeQueued:
		e.shrink = m
	}
	return d, nil
}

// fit brings the processor set to m.
func (e *Executive) fit(m int) {
	switch {
	case m < len(e.freeAt):
		// Keep the m latest-free processors so no in-flight quantum loses
		// its completion record and no new work starts while dropped
		// processors wind down.
		sort.SliceStable(e.freeAt, func(i, j int) bool { return e.freeAt[j].Less(e.freeAt[i]) })
		e.freeAt = e.freeAt[:m:m]
	case m > len(e.freeAt):
		boundary := rat.FromInt(e.now.Ceil())
		for p := len(e.freeAt); p < m; p++ {
			e.freeAt = append(e.freeAt, boundary)
		}
	}
	// The schedule's M is the validation bound for per-slot parallelism and
	// processor indices over the whole history, so it only ever grows.
	if m > e.schedule.M {
		e.schedule.M = m
	}
}

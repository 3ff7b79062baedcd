package online

import (
	"fmt"
	"sort"

	"desyncpfair/internal/admission"
	"desyncpfair/internal/rat"
)

// M returns the current processor count.
func (e *Executive) M() int { return e.led.M() }

// PendingM returns the queued drain-mode shrink target, 0 when none.
func (e *Executive) PendingM() int { return e.led.PendingM() }

// PlanResize answers what ResizeDrain(m, drain) would do without changing
// any state (see PlanRegister).
func (e *Executive) PlanResize(m int, drain bool) (admission.ResizeDecision, error) {
	return e.led.PlanResize(m, drain)
}

// Resize changes the processor count to m, failing when ResizeDrain
// without drain would reject it.
func (e *Executive) Resize(m int) error {
	d, err := e.ResizeDrain(m, false)
	if err == nil && d.Outcome == admission.ResizeRejected {
		err = fmt.Errorf("online: %s", d.Reason)
	}
	return err
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
	d, err := e.led.Resize(m, drain)
	if err == nil {
		e.fit()
	}
	return d, err
}

// fit brings the processor set to the ledger's M after a resize applied
// there.
func (e *Executive) fit() {
	m := e.led.M()
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

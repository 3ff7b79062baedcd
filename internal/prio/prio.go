// Package prio implements the Pfair priority policies used by the paper:
// EPDF, PF, PD and PD².
//
// All the algorithms prioritize subtasks with earlier pseudo-deadlines and
// differ only in how they break deadline ties (Sec. 2 of the paper). Each
// policy exposes the *partial* order ≺/≼ of the paper via Cmp (0 means the
// two subtasks have genuinely equal priority under the policy), because
// PD^B and the Property-PB machinery reason about "equal or higher
// priority" (≼) explicitly. Engines that need a deterministic schedule use
// Order, which refines Cmp with a (task ID, sequence) tie-break — any such
// refinement of an optimal policy remains optimal.
package prio

import (
	"desyncpfair/internal/model"
)

// Policy is a Pfair subtask priority.
type Policy interface {
	// Name identifies the policy ("EPDF", "PF", "PD", "PD2").
	Name() string
	// Cmp returns −1 if a ≺ b (a has strictly higher priority), +1 if
	// b ≺ a, and 0 if the policy considers them equal priority.
	Cmp(a, b *model.Subtask) int
}

// Prec reports the paper's a ≺ b (a strictly higher priority) under p.
func Prec(p Policy, a, b *model.Subtask) bool { return p.Cmp(a, b) < 0 }

// Order is the deterministic total order used by the engines: the policy's
// Cmp with remaining ties broken by task ID, then sequence position. It
// reports whether a should be scheduled before b.
func Order(p Policy, a, b *model.Subtask) bool {
	if c := p.Cmp(a, b); c != 0 {
		return c < 0
	}
	if a.Task.ID != b.Task.ID {
		return a.Task.ID < b.Task.ID
	}
	return a.Seq < b.Seq
}

// EPDF is the earliest-pseudo-deadline-first policy: no tie-breaking rules.
// It is suboptimal on more than two processors but cheap; the paper's
// "extends to most prior work" remark covers it (experiment E8).
type EPDF struct{}

func (EPDF) Name() string { return "EPDF" }

// Cmp compares by pseudo-deadline only.
func (EPDF) Cmp(a, b *model.Subtask) int {
	return cmp64(a.Deadline(), b.Deadline())
}

// PD2 is the PD² policy of Anderson & Srinivasan: earliest deadline first;
// ties broken first by the successor bit (b = 1 wins — intuitively, a
// subtask whose window overlaps its successor's is more urgent) and then,
// among b = 1 subtasks, by the group deadline (later D wins — a longer
// cascade of forced schedulings is more urgent). PD² is optimal under the
// SFQ model; it is the algorithm the paper runs under the DVQ model.
type PD2 struct{}

func (PD2) Name() string { return "PD2" }

func (PD2) Cmp(a, b *model.Subtask) int {
	if c := cmp64(a.Deadline(), b.Deadline()); c != 0 {
		return c
	}
	if c := cmpInt(b.BBit(), a.BBit()); c != 0 { // b = 1 beats b = 0
		return c
	}
	if a.BBit() == 1 { // both 1: later group deadline wins
		return cmp64(b.GroupDeadline(), a.GroupDeadline())
	}
	return 0
}

// PD is the policy of Baruah, Gehrke & Plaxton (1995). Its tie-breaking
// rules form a superset of PD²'s; the historical formulation carries two
// further rules whose effect is subsumed by any deterministic refinement of
// PD² (Anderson & Srinivasan proved the PD² subset suffices for
// optimality). We implement PD as the documented refinement: PD²'s rules,
// then heavy-before-light, then larger weight first. See DESIGN.md §4.
type PD struct{}

func (PD) Name() string { return "PD" }

func (PD) Cmp(a, b *model.Subtask) int {
	if c := (PD2{}).Cmp(a, b); c != 0 {
		return c
	}
	ah, bh := a.Task.W.IsHeavy(), b.Task.W.IsHeavy()
	if ah != bh {
		if ah {
			return -1
		}
		return 1
	}
	// Larger weight first: a.W > b.W ⇔ aE·bP > bE·aP ⇒ a higher priority.
	return -cmp64(a.Task.W.E*b.Task.W.P, b.Task.W.E*a.Task.W.P)
}

// PF is the original proportionate-fair policy of Baruah et al. (1996):
// earliest deadline first; ties broken by the successor bit; and among
// b = 1 subtasks by lexicographically comparing the successor chain — the
// deadlines (and bits) of T_{i+1}, T_{i+2}, … as if released as early as
// possible. PD²'s group deadline is a closed form for where this chain
// comparison is decided, so PF and PD² order heavy subtasks identically;
// PF additionally keeps comparing for light tasks.
type PF struct{}

func (PF) Name() string { return "PF" }

// pfChainCap bounds the successor-chain comparison. Two chains that agree
// this long belong to tasks of equal weight and phase and remain equal
// forever, so declaring them equal is exact, not an approximation.
const pfChainCap = 4096

func (PF) Cmp(a, b *model.Subtask) int {
	x, y := *a, *b // shallow copies so we can walk the hypothetical chain
	for step := 0; step < pfChainCap; step++ {
		if c := cmp64(x.Deadline(), y.Deadline()); c != 0 {
			return c
		}
		if c := cmpInt(y.BBit(), x.BBit()); c != 0 {
			return c
		}
		if x.BBit() == 0 { // both bits 0: tie stands
			return 0
		}
		x.Index++
		y.Index++
	}
	return 0
}

func cmp64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpInt(a, b int) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// ByName returns the policy with the given name, or nil.
func ByName(name string) Policy {
	switch name {
	case "EPDF", "epdf":
		return EPDF{}
	case "PF", "pf":
		return PF{}
	case "PD", "pd":
		return PD{}
	case "PD2", "pd2", "PD^2":
		return PD2{}
	}
	return nil
}

// All returns every policy, for table-driven experiments.
func All() []Policy { return []Policy{EPDF{}, PF{}, PD{}, PD2{}} }

package online

import (
	"desyncpfair/internal/model"
	"desyncpfair/internal/prio"
	"desyncpfair/internal/rat"
)

// Clock sets when a processor may start work — the one rule in which the
// quantum models differ. Without a clock (DVQ) it starts the moment it
// frees; under one only on its own boundaries φ_k + j·(1+ε_k), idling an
// early yield's residue until the next. φ = ε = 0 is SFQ, φ_k = k/M the
// staggered model, ε > 0 unsynchronized timer interrupts (package drift).
type Clock struct {
	Phase []rat.Rat // φ_k ∈ [0, 1); missing entries are 0
	Drift []rat.Rat // ε_k ≥ 0; missing entries are 0
	// Affinity starts a head on its task's previous processor when that one
	// decides at the same moment. Without it, the processors deciding at a
	// moment take the heads in index order, as under DVQ.
	Affinity bool
}

// AdoptClocked is Adopt under a boundary clock — the offline drivers' way
// into the one dispatch loop for the SFQ model and its staggered and
// drifting variants (package sfq, package drift). The clock is not part of
// a Checkpoint, and a clocked executive is not resized.
func AdoptClocked(sys *model.System, m int, policy prio.Policy, c Clock) *Executive {
	e := Adopt(sys, m, policy)
	e.boundary = make([]rat.Rat, m)
	e.quantum = make([]rat.Rat, m)
	for k := range e.boundary {
		e.quantum[k] = rat.One
		if k < len(c.Phase) {
			e.boundary[k] = c.Phase[k]
		}
		if k < len(c.Drift) {
			e.quantum[k] = rat.One.Add(c.Drift[k])
		}
	}
	if c.Affinity {
		e.lastProc = make([]int, len(sys.Tasks))
		for i := range e.lastProc {
			e.lastProc[i] = -1
		}
	}
	return e
}

// boundaryFrom returns processor p's first boundary at or after t ≥ now.
// It adds whole quanta (dividing would grow denominators until rat
// overflows). A processor that starts work on a boundary is free by the
// next (a cost is at most 1 ≤ 1+ε), where dispatchAt moves its boundary,
// so boundary[p] ≥ freeAt[p].
func (e *Executive) boundaryFrom(p int, t rat.Rat) rat.Rat {
	for e.boundary[p].Less(t) {
		e.boundary[p] = e.boundary[p].Add(e.quantum[p])
	}
	return e.boundary[p]
}

// decides reports whether processor p may start work at t, a time
// NextEvent returned: it is free, or under a clock t is its boundary
// (NextEvent has moved every boundary to t or later).
func (e *Executive) decides(p int, t rat.Rat) bool {
	if e.boundary == nil {
		return !t.Less(e.freeAt[p])
	}
	return e.boundary[p].Equal(t)
}

// Package sched defines the schedule objects shared by every engine in this
// repository, together with the validity checks and the tardiness metric of
// eq. (7) of Devi & Anderson (IPPS 2005).
//
// Under the SFQ model a schedule is the function of eq. (1): S(T, t) ∈ {0,1}
// with at most M ones per slot. Under the DVQ model the paper overloads S to
// map each subtask to the (rational) time at which it commences execution,
// together with its actual execution cost c(T_i) ≤ 1. A sched.Schedule
// stores the DVQ form — one Assignment per scheduled subtask — which
// subsumes the SFQ form (all starts integral, all costs accounted to full
// slots).
package sched

import (
	"fmt"
	"sort"

	"desyncpfair/internal/model"
	"desyncpfair/internal/rat"
)

// Assignment records one scheduling decision: subtask Sub commences on
// processor Proc at time Start and executes for Cost ≤ 1 time units.
type Assignment struct {
	Sub   *model.Subtask
	Proc  int
	Start rat.Rat
	Cost  rat.Rat
	// Decision is the index of the scheduling decision that produced this
	// assignment, in engine order. For slot-based engines it encodes the
	// total order used by the paper's rank function (Sec. 3.3): decisions
	// within a slot are numbered in selection order. −1 when untracked.
	Decision int
}

// Finish returns Start + Cost, the completion time.
func (a *Assignment) Finish() rat.Rat { return a.Start.Add(a.Cost) }

// Slot returns ⌊Start⌋, the slot in which the assignment begins.
func (a *Assignment) Slot() int64 { return a.Start.Floor() }

// Tardiness is eq. (7), the repository's one definition of it: a subtask
// with deadline d that completes at finish is tardy by max(0, finish − d).
// It takes the two numbers rather than an Assignment because the online
// engine works it out once, from the finish time and the deadline it hands
// its dispatch hook, for its schedule and its listeners both (AddDecided).
func Tardiness(finish rat.Rat, deadline int64) rat.Rat {
	if late := finish.Sub(rat.FromInt(deadline)); late.Sign() > 0 {
		return late
	}
	return rat.Zero
}

// Schedule is a complete (or partial) schedule of a task system on M
// processors. Add folds every assignment into running aggregates — count,
// maximum tardiness, miss count, busy time, makespan — so those reads are
// O(1); the assignments themselves are kept too unless the owner called
// DiscardAssignments.
type Schedule struct {
	M     int
	Sys   *model.System
	Algo  string // engine/policy label, for reports
	Model string // "SFQ", "DVQ", "SFQ-staggered", …

	discard bool
	asgs    []*Assignment
	bySub   map[*model.Subtask]*Assignment
	// slab holds the assignments asgs points to, in blocks: one the size of
	// the system when the schedule is made, then blocks of at least 64. A
	// full block is replaced, never grown, so no kept pointer moves.
	slab []Assignment

	n        int
	misses   int
	maxTard  rat.Rat
	busy     rat.Rat
	makespan rat.Rat
}

// New creates an empty schedule for sys on m processors.
func New(sys *model.System, m int, algo, mdl string) *Schedule {
	return &Schedule{
		M:        m,
		Sys:      sys,
		Algo:     algo,
		Model:    mdl,
		asgs:     make([]*Assignment, 0, sys.NumSubtasks()),
		bySub:    make(map[*model.Subtask]*Assignment, sys.NumSubtasks()),
		slab:     make([]Assignment, 0, sys.NumSubtasks()),
		maxTard:  rat.Zero,
		busy:     rat.Zero,
		makespan: rat.Zero,
	}
}

// DiscardAssignments makes the schedule keep only its aggregates: nothing
// in the paper's algorithm reads a past decision, so an engine that runs
// forever (a service tenant) holds no per-decision state. Call it before
// the first Add. Of, Assignments, Tardiness and the validators then have
// nothing to work on — offline drivers, figures and experiments keep the
// default.
func (s *Schedule) DiscardAssignments() {
	s.discard, s.asgs, s.bySub, s.slab = true, nil, nil, nil
}

// Retains reports whether the schedule keeps its assignments.
func (s *Schedule) Retains() bool { return !s.discard }

// Add records an assignment and returns the retained copy (nil after
// DiscardAssignments). It panics if the subtask was already scheduled —
// engines must schedule each subtask exactly once.
func (s *Schedule) Add(a Assignment) *Assignment {
	fin := a.Finish()
	return s.AddDecided(a, fin, Tardiness(fin, a.Sub.Deadline()))
}

// AddDecided is Add for an engine that has already worked out the
// assignment's finish time and its tardiness (eq. (7)) for its own use.
func (s *Schedule) AddDecided(a Assignment, fin, tard rat.Rat) *Assignment {
	if a.Decision == 0 {
		a.Decision = s.n
	}
	var kept *Assignment
	if !s.discard {
		if _, dup := s.bySub[a.Sub]; dup {
			panic(fmt.Sprintf("sched: %s scheduled twice", a.Sub))
		}
		if len(s.slab) == cap(s.slab) {
			s.slab = make([]Assignment, 0, max(64, cap(s.slab)))
		}
		s.slab = append(s.slab, a)
		kept = &s.slab[len(s.slab)-1]
		s.asgs = append(s.asgs, kept)
		s.bySub[a.Sub] = kept
	}
	s.n++
	s.busy = s.busy.Add(a.Cost)
	s.makespan = rat.Max(s.makespan, fin)
	if tard.Sign() > 0 {
		s.misses++
		s.maxTard = rat.Max(s.maxTard, tard)
	}
	return kept
}

// Of returns the assignment of sub, or nil if sub is unscheduled.
func (s *Schedule) Of(sub *model.Subtask) *Assignment { return s.bySub[sub] }

// Assignments returns all assignments in decision order.
func (s *Schedule) Assignments() []*Assignment { return s.asgs }

// Len returns the number of scheduled subtasks.
func (s *Schedule) Len() int { return s.n }

// Complete reports whether every released subtask of the system has been
// scheduled.
func (s *Schedule) Complete() bool { return s.n == s.Sys.NumSubtasks() }

// Tardiness returns the tardiness of sub per eq. (7): max(0, finish − d).
// Unscheduled subtasks have undefined tardiness; this returns 0 for them
// (callers should check Complete first).
func (s *Schedule) Tardiness(sub *model.Subtask) rat.Rat {
	a := s.bySub[sub]
	if a == nil {
		return rat.Zero
	}
	return Tardiness(a.Finish(), sub.Deadline())
}

// MaxTardiness returns the maximum tardiness over all scheduled subtasks.
func (s *Schedule) MaxTardiness() rat.Rat { return s.maxTard }

// MissCount returns the number of subtasks with positive tardiness.
func (s *Schedule) MissCount() int { return s.misses }

// BusyTime returns the total processor time consumed (Σ cost).
func (s *Schedule) BusyTime() rat.Rat { return s.busy }

// Makespan returns the latest completion time (0 for an empty schedule).
func (s *Schedule) Makespan() rat.Rat { return s.makespan }

// IdleTime returns M·makespan − busy time: processor time left idle before
// the last completion. Under SFQ this includes the non-work-conserving
// residue of early-completing quanta.
func (s *Schedule) IdleTime() rat.Rat {
	return rat.FromInt(int64(s.M)).Mul(s.Makespan()).Sub(s.BusyTime())
}

// validateCommon checks the constraints shared by both models:
//   - every released subtask is scheduled exactly once (Complete);
//   - 0 < cost ≤ 1 (quanta have maximum size one);
//   - no subtask starts before its eligibility time;
//   - no subtask starts before its predecessor completes (subtasks of a
//     task execute in sequence — "migration allowed, parallelism not");
//   - processor indices in range.
func (s *Schedule) validateCommon() error {
	if s.discard {
		return fmt.Errorf("sched: assignments were discarded; nothing to validate")
	}
	if !s.Complete() {
		return fmt.Errorf("sched: %d of %d subtasks scheduled", len(s.asgs), s.Sys.NumSubtasks())
	}
	for _, a := range s.asgs {
		if a.Proc < 0 || a.Proc >= s.M {
			return fmt.Errorf("sched: %s on processor %d of %d", a.Sub, a.Proc, s.M)
		}
		if a.Cost.Sign() <= 0 || rat.One.Less(a.Cost) {
			return fmt.Errorf("sched: %s has cost %s outside (0,1]", a.Sub, a.Cost)
		}
		if a.Start.Less(rat.FromInt(a.Sub.Elig)) {
			return fmt.Errorf("sched: %s starts at %s before eligibility %d", a.Sub, a.Start, a.Sub.Elig)
		}
		if pred := s.Sys.Predecessor(a.Sub); pred != nil {
			pa := s.bySub[pred]
			if pa == nil {
				return fmt.Errorf("sched: %s scheduled but predecessor %s is not", a.Sub, pred)
			}
			if a.Start.Less(s.predReady(pa)) {
				return fmt.Errorf("sched: %s starts at %s before predecessor completes at %s",
					a.Sub, a.Start, s.predReady(pa))
			}
		}
	}
	return nil
}

// predReady returns the time at which pa's successor may start. Under DVQ
// that is the actual completion time; under SFQ the processor is held until
// the end of the slot, but the successor may start at the next slot
// boundary either way, so the actual finish is the right bound for both.
func (s *Schedule) predReady(pa *Assignment) rat.Rat { return pa.Finish() }

// ValidateDVQ checks that the schedule is structurally legal under the DVQ
// model: the common constraints plus non-overlap of execution intervals on
// each processor. (Deadline misses are legal — they are what we measure.)
func (s *Schedule) ValidateDVQ() error {
	if err := s.validateCommon(); err != nil {
		return err
	}
	byProc := make([][]*Assignment, s.M)
	for _, a := range s.asgs {
		byProc[a.Proc] = append(byProc[a.Proc], a)
	}
	for p, list := range byProc {
		sort.Slice(list, func(i, j int) bool { return list[i].Start.Less(list[j].Start) })
		for k := 1; k < len(list); k++ {
			if list[k].Start.Less(list[k-1].Finish()) {
				return fmt.Errorf("sched: processor %d overlap: %s [%s,%s) then %s at %s",
					p, list[k-1].Sub, list[k-1].Start, list[k-1].Finish(), list[k].Sub, list[k].Start)
			}
		}
	}
	return nil
}

// ValidateSFQ checks legality under the SFQ model: the common constraints
// plus integral starts, at most M subtasks per slot, at most one subtask
// per processor per slot, and predecessors in strictly earlier slots.
func (s *Schedule) ValidateSFQ() error {
	if err := s.validateCommon(); err != nil {
		return err
	}
	type key struct {
		slot int64
		proc int
	}
	perSlot := map[int64]int{}
	perCell := map[key]*Assignment{}
	for _, a := range s.asgs {
		if !a.Start.IsInt() {
			return fmt.Errorf("sched: SFQ start %s of %s is not integral", a.Start, a.Sub)
		}
		slot := a.Start.Int()
		perSlot[slot]++
		if perSlot[slot] > s.M {
			return fmt.Errorf("sched: more than M=%d subtasks in slot %d", s.M, slot)
		}
		k := key{slot, a.Proc}
		if other := perCell[k]; other != nil {
			return fmt.Errorf("sched: processor %d slot %d double-booked: %s and %s", a.Proc, slot, other.Sub, a.Sub)
		}
		perCell[k] = a
		if pred := s.Sys.Predecessor(a.Sub); pred != nil {
			if pa := s.bySub[pred]; pa != nil && pa.Start.Int() >= slot {
				return fmt.Errorf("sched: %s in slot %d not after predecessor's slot %d", a.Sub, slot, pa.Start.Int())
			}
		}
	}
	return nil
}

// ValidatePfair checks full Pfair validity under the SFQ model per Sec. 3.3
// of the paper: structural SFQ legality and every subtask scheduled in a
// slot within its IS-window [e(T_i), d(T_i)).
func (s *Schedule) ValidatePfair() error {
	if err := s.ValidateSFQ(); err != nil {
		return err
	}
	for _, a := range s.asgs {
		slot := a.Start.Int()
		if slot < a.Sub.Elig || slot >= a.Sub.Deadline() {
			return fmt.Errorf("sched: %s scheduled in slot %d outside IS-window [%d,%d)",
				a.Sub, slot, a.Sub.Elig, a.Sub.Deadline())
		}
	}
	return nil
}

// InSlot returns the assignments beginning in slot t, in decision order.
func (s *Schedule) InSlot(t int64) []*Assignment {
	var out []*Assignment
	for _, a := range s.asgs {
		if a.Slot() == t {
			out = append(out, a)
		}
	}
	return out
}

// Ranks returns the paper's rank order (Sec. 3.3): the irreflexive total
// order on subtasks given by the sequence in which they are scheduled —
// slot by slot, and within a slot by selection order. The returned slice is
// rank → subtask.
func (s *Schedule) Ranks() []*model.Subtask {
	asgs := append([]*Assignment(nil), s.asgs...)
	sort.Slice(asgs, func(i, j int) bool {
		si, sj := asgs[i].Slot(), asgs[j].Slot()
		if si != sj {
			return si < sj
		}
		return asgs[i].Decision < asgs[j].Decision
	})
	out := make([]*model.Subtask, len(asgs))
	for i, a := range asgs {
		out[i] = a.Sub
	}
	return out
}

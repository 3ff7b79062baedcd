// Package sfq implements Pfair scheduling under the SFQ model — the
// synchronized, fixed-size-quantum model of classical Pfair work that the
// paper relaxes. Scheduling decisions are made at slot boundaries only; if
// a subtask yields before the end of its quantum, the residue of the
// quantum is wasted (the model is non-work-conserving).
//
// Options.Staggered selects the *staggered* variant of Holman & Anderson
// (2004): quanta remain uniform in size, but the quantum start points on
// successive processors are offset by 1/M, spreading scheduler invocations
// (and bus traffic) over the slot. Processors that keep their own quantum
// boundaries are package drift's model, so that variant runs on drift.Run.
package sfq

import (
	"fmt"
	"slices"

	"desyncpfair/internal/drift"
	"desyncpfair/internal/model"
	"desyncpfair/internal/prio"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/sched"
)

// Options configures an SFQ run.
type Options struct {
	M      int         // number of processors (≥ 1)
	Policy prio.Policy // subtask priority; nil defaults to PD²
	Yield  sched.YieldFn
	// Staggered offsets the quantum boundaries of processor k by k/M
	// (Holman & Anderson); each processor decides at its own boundaries.
	Staggered bool
	// Horizon caps the number of slots simulated; 0 derives a safe bound
	// (latest deadline + number of subtasks + 1, enough for any
	// work-conserving slot scheduler to drain).
	Horizon int64
}

func (o *Options) fill(sys *model.System) error {
	if o.M < 1 {
		return fmt.Errorf("sfq: M = %d", o.M)
	}
	if o.Policy == nil {
		o.Policy = prio.PD2{}
	}
	if o.Yield == nil {
		o.Yield = sched.FullCost
	}
	if o.Horizon == 0 {
		o.Horizon = sys.Horizon() + int64(sys.NumSubtasks()) + 1
	}
	return nil
}

// Run simulates sys on opts.M processors under the SFQ model and returns
// the complete schedule. An error is returned only if the horizon is
// exhausted before every subtask is scheduled (which cannot happen with the
// default horizon) or options are invalid.
//
// The per-slot ready set is ordered by slices.SortFunc through prio.Ranker
// over one cached prio.Key per task head — the evaluator and the caching
// rule of the online executive's ready heap. RunReference retains the seed
// implementation (insertion sort, priorities recomputed on every
// comparison); TestEngineEquivalence pins the two to identical schedules.
func Run(sys *model.System, opts Options) (*sched.Schedule, error) {
	if err := opts.fill(sys); err != nil {
		return nil, err
	}
	if opts.Staggered {
		return runPhased(sys, opts)
	}
	s := sched.New(sys, opts.M, opts.Policy.Name(), "SFQ")

	st := newState(sys, opts.M)
	rank := prio.NewRanker(opts.Policy)
	keys := make([]prio.Key, len(sys.Tasks)) // per task: the key of its head
	for _, task := range sys.Tasks {
		if seq := sys.Subtasks(task); len(seq) > 0 {
			keys[task.ID] = prio.KeyOf(seq[0])
		}
	}
	// Ready subtasks are heads of distinct tasks, and Compare is a strict
	// total order on distinct subtasks, so the result is exactly the seed's
	// stable insertion sort by prio.Order.
	byRank := func(a, b *model.Subtask) int {
		return rank.Compare(&keys[a.Task.ID], &keys[b.Task.ID], a, b)
	}
	decision := 0
	for t := int64(0); st.remaining > 0; t++ {
		if t > opts.Horizon {
			return s, fmt.Errorf("sfq: horizon %d exhausted with %d subtasks pending", opts.Horizon, st.remaining)
		}
		ready := st.readyAt(t)
		slices.SortFunc(ready, byRank)

		free := st.freeProcs()
		for _, sub := range ready {
			if len(free) == 0 {
				break
			}
			proc := st.pickProc(free, sub)
			free = remove(free, proc)
			decision++
			a := s.Add(sched.Assignment{
				Sub:      sub,
				Proc:     proc,
				Start:    rat.FromInt(t),
				Cost:     opts.Yield(sub),
				Decision: decision,
			})
			st.commit(sub, a, t)
			id := sub.Task.ID
			if seq := sys.Subtasks(sub.Task); st.cursor[id] < len(seq) {
				keys[id] = prio.KeyOf(seq[st.cursor[id]])
			}
		}
	}
	return s, nil
}

// runPhased runs the staggered model of Holman & Anderson: quanta remain
// uniform (size one), but processor k's occupy [t + k/M, t+1 + k/M), and
// each processor decides at its own boundaries, choosing the
// highest-priority subtask that is eligible and whose predecessor has
// completed by that moment; the residue of an early yield is still wasted.
// That is package drift's model — per-processor quantum boundaries — with
// phase k/M and no rate drift, so drift.Run is the loop;
// TestStaggeredIsPhasedDrift and TestEngineEquivalence pin it to the seed's
// slot-by-slot loop, runStaggeredReference.
func runPhased(sys *model.System, opts Options) (*sched.Schedule, error) {
	phase := make([]rat.Rat, opts.M)
	for k := range phase {
		phase[k] = rat.New(int64(k), int64(opts.M))
	}
	s, err := drift.Run(sys, drift.Options{
		M: opts.M, Policy: opts.Policy, Yield: opts.Yield,
		Phase: phase, MaxBoundaries: opts.Horizon,
	})
	if s != nil {
		s.Model = "SFQ-staggered"
	}
	if err != nil {
		return s, fmt.Errorf("sfq: staggered: %w", err)
	}
	return s, nil
}

// state tracks per-task progress during a slot-based run.
type state struct {
	sys       *model.System
	cursor    []int   // per task: next unscheduled seq index
	lastSlot  []int64 // per task: slot of most recent assignment (−1 none)
	lastProc  []int   // per task: processor of most recent assignment (affinity)
	m         int
	remaining int
	ready     []*model.Subtask // reusable readyAt buffer
	free      []int            // reusable freeProcs buffer
}

func newState(sys *model.System, m int) *state {
	n := len(sys.Tasks)
	st := &state{
		sys:      sys,
		cursor:   make([]int, n),
		lastSlot: make([]int64, n),
		lastProc: make([]int, n),
		m:        m,
	}
	for i := range st.lastSlot {
		st.lastSlot[i] = -1
		st.lastProc[i] = -1
	}
	st.remaining = sys.NumSubtasks()
	return st
}

// readyAt returns the ready heads at slot t: each task's next unscheduled
// released subtask, provided it is eligible and its predecessor (if any)
// was scheduled in an earlier slot. (Only heads can be ready — subtasks of
// a task execute in released order.) The returned slice aliases a buffer
// reused across slots.
func (st *state) readyAt(t int64) []*model.Subtask {
	ready := st.ready[:0]
	for _, task := range st.sys.Tasks {
		seq := st.sys.Subtasks(task)
		c := st.cursor[task.ID]
		if c >= len(seq) {
			continue
		}
		head := seq[c]
		if head.Elig > t {
			continue
		}
		if c > 0 && st.lastSlot[task.ID] >= t {
			continue // predecessor occupies this slot
		}
		ready = append(ready, head)
	}
	st.ready = ready
	return ready
}

// freeProcs returns the free-processor list for a fresh slot; it aliases a
// buffer reused across slots (the caller shrinks it via remove).
func (st *state) freeProcs() []int {
	free := st.free[:0]
	for i := 0; i < st.m; i++ {
		free = append(free, i)
	}
	st.free = free
	return free
}

// pickProc chooses a processor for sub from the (non-empty) free list,
// preferring the task's previous processor to minimize notional migrations.
func (st *state) pickProc(free []int, sub *model.Subtask) int {
	if prev := st.lastProc[sub.Task.ID]; prev >= 0 {
		for _, p := range free {
			if p == prev {
				return p
			}
		}
	}
	return free[0]
}

func (st *state) commit(sub *model.Subtask, a *sched.Assignment, t int64) {
	id := sub.Task.ID
	st.cursor[id]++
	st.lastSlot[id] = t
	st.lastProc[id] = a.Proc
	st.remaining--
}

func remove(xs []int, x int) []int {
	for i, v := range xs {
		if v == x {
			return append(xs[:i], xs[i+1:]...)
		}
	}
	return xs
}

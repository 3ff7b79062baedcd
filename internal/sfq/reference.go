package sfq

import (
	"fmt"

	"desyncpfair/internal/model"
	"desyncpfair/internal/prio"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/sched"
)

// RunReference is the seed implementation of Run (aligned and staggered),
// retained verbatim as the golden oracle for the fast-path engine: per-slot
// insertion sort and linear best-ready scans, with every priority component
// recomputed by prio.Order on each comparison. Its only job is to define
// the semantics that Run must reproduce assignment-for-assignment (see
// TestEngineEquivalence). Do not optimize it.
func RunReference(sys *model.System, opts Options) (*sched.Schedule, error) {
	if err := opts.fill(sys); err != nil {
		return nil, err
	}
	if opts.Staggered {
		return runStaggeredReference(sys, opts)
	}
	s := sched.New(sys, opts.M, opts.Policy.Name(), "SFQ")

	st := newState(sys, opts.M)
	decision := 0
	for t := int64(0); st.remaining > 0; t++ {
		if t > opts.Horizon {
			return s, fmt.Errorf("sfq: horizon %d exhausted with %d subtasks pending", opts.Horizon, st.remaining)
		}
		ready := st.readyAt(t)
		sortSubtasksReference(ready, opts.Policy)

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
		}
	}
	return s, nil
}

func runStaggeredReference(sys *model.System, opts Options) (*sched.Schedule, error) {
	s := sched.New(sys, opts.M, opts.Policy.Name(), "SFQ-staggered")
	st := newState(sys, opts.M)
	m := int64(opts.M)
	decision := 0
	finish := make([]rat.Rat, len(sys.Tasks))
	for t := int64(0); st.remaining > 0; t++ {
		if t > opts.Horizon {
			return s, fmt.Errorf("sfq: horizon %d exhausted with %d subtasks pending", opts.Horizon, st.remaining)
		}
		for k := int64(0); k < m; k++ {
			now := rat.FromInt(t).Add(rat.New(k, m))
			best := st.bestReadyStaggeredReference(now, finish, opts.Policy)
			if best == nil {
				continue
			}
			decision++
			a := s.Add(sched.Assignment{
				Sub:      best,
				Proc:     int(k),
				Start:    now,
				Cost:     opts.Yield(best),
				Decision: decision,
			})
			st.commit(best, a, t)
			finish[best.Task.ID] = a.Finish()
		}
	}
	return s, nil
}

func (st *state) bestReadyStaggeredReference(now rat.Rat, finish []rat.Rat, pol prio.Policy) *model.Subtask {
	var best *model.Subtask
	for _, task := range st.sys.Tasks {
		seq := st.sys.Subtasks(task)
		c := st.cursor[task.ID]
		if c >= len(seq) {
			continue
		}
		head := seq[c]
		if now.Less(rat.FromInt(head.Elig)) {
			continue
		}
		if c > 0 && now.Less(finish[task.ID]) {
			continue // predecessor still executing
		}
		if best == nil || prio.Order(pol, head, best) {
			best = head
		}
	}
	return best
}

func sortSubtasksReference(subs []*model.Subtask, p prio.Policy) {
	// Insertion sort keeps the common small ready sets cheap and avoids an
	// allocation; ready sets are one head per task.
	for i := 1; i < len(subs); i++ {
		for j := i; j > 0 && prio.Order(p, subs[j], subs[j-1]); j-- {
			subs[j], subs[j-1] = subs[j-1], subs[j]
		}
	}
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

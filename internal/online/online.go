// Package online provides a real-time executive on top of the DVQ-model
// scheduler: tasks are registered with weights, jobs arrive dynamically
// (sporadic/IS behaviour), subtask windows are derived lazily, and
// scheduling decisions are made incrementally as virtual time advances.
//
// The offline engines in internal/core and internal/sfq need the whole
// released-subtask sequence up front; a system that admits work at runtime
// cannot use them directly. The executive closes that gap while keeping
// the paper's guarantee: as long as total registered utilization stays
// ≤ M, every job's subtasks miss their Pfair pseudo-deadlines by at most
// one quantum (Theorem 3), because the generated release pattern is a
// legal IS task system and the dispatch rule is exactly PD²-DVQ.
//
// Typical use:
//
//	ex := online.New(2, nil)                  // two processors, PD²
//	web := ex.Register("web", model.W(1, 2))
//	ex.SubmitJob(web, rat.Zero)               // job arrives at time 0
//	ex.Run(rat.FromInt(10), nil)              // advance virtual time
//	ex.SubmitJob(web, rat.FromInt(10))        // next job arrives late — fine
//	ex.Run(rat.FromInt(50), nil)
//	fmt.Println(ex.Schedule().MaxTardiness())
//
// # Concurrency contract
//
// An Executive is single-goroutine: every method — Register, Unregister,
// SubmitJob, Run, Drain, and the accessors — must be called from one
// goroutine (or under one external lock). The OnDispatch hook set with
// SetOnDispatch is invoked synchronously on that same goroutine, while the
// executive's internal state is mid-update; the hook must not call back
// into the Executive. Callers that need concurrent access should own the
// Executive the way internal/server.Tenant does: one goroutine (the
// tenant's event loop) makes every call, other goroutines hand it commands
// through a queue and read state it publishes — there is no lock to share.
//
// # One engine
//
// The executive is the repository's only incremental PD²-DVQ dispatch
// loop: core.RunDVQ adopts a prebuilt system (Adopt) and runs this one.
// Each task with undispatched work has exactly one entry — its head — in
// a pending heap keyed by activation time or a ready heap keyed by a
// priority key cached on entry (heads.go), so a decision costs O(log N)
// in the tasks that have work and nothing in those that do not. There is
// no event queue: under DVQ a decision happens when a processor frees or
// when work reaches an idle one, so the next decision time is a function
// of freeAt and the heads (NextEvent) and Run loops on it.
// core.RunDVQReference, the seed's O(N) rescan, is the oracle it is pinned
// to.
//
// # Retention
//
// A decision reads each task's head subtask, its predecessor's completion
// time and the M freeAt values — never a past decision. What the executive
// keeps behind its cursors is therefore its owner's choice. By default
// everything stays: Schedule() holds every assignment and System() every
// released subtask, which is what the offline drivers, the figures, the
// experiments, internal/host and the scenario runner read afterwards.
// After ForgetHistory nothing does: the schedule keeps its running
// aggregates only (sched.Schedule.DiscardAssignments) and each task's
// sequence is cut back to its last dispatched subtask as dispatching moves
// on — the same trimmed form Checkpoint writes and Restore runs from — so
// an executive that lives forever (a service tenant) costs O(live work).
// Dispatch decisions and Checkpoint bytes are identical either way.
package online

import (
	"fmt"

	"desyncpfair/internal/admission"
	"desyncpfair/internal/model"
	"desyncpfair/internal/prio"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/sched"
)

// Executive is an incremental PD²-DVQ scheduler for dynamically arriving
// jobs. It is not safe for concurrent use; drive it from one goroutine.
type Executive struct {
	policy prio.Policy

	sys      *model.System
	schedule *sched.Schedule

	// led is the one Σwt ≤ M ledger: the processor count, a queued
	// drain-mode shrink target, and the weights of the active tasks. The
	// executive is its only writer; len(freeAt) follows its M (fit).
	led        *admission.Controller
	active     []bool // per task: still registered (accepting jobs, counted in the ledger)
	onDispatch func(Dispatch)

	now      rat.Rat
	freeAt   []rat.Rat
	cursor   []int     // per task: next undispatched subtask in its sequence
	lastFin  []rat.Rat // per task: completion of the last dispatched subtask
	nextIdx  []int64   // per task: next subtask index to generate (1-based)
	pending  int       // released, undispatched subtasks
	decision int

	// Every task with cursor < len(sequence) has its head on exactly one
	// of these (heads.go); they are derived state, rebuilt by Restore.
	waiting pendingHeap
	ready   readyHeap
}

// Dispatch reports one scheduling decision to the Run callback.
// Decision is the executive-wide 1-based decision number (the same
// counter the schedule's assignments carry), so observability layers can
// correlate a hook invocation with its position in the dispatch sequence
// without holding extra state.
type Dispatch struct {
	Sub      *model.Subtask
	Proc     int
	Start    rat.Rat
	Finish   rat.Rat
	Decision int
}

// New creates an executive for m processors. A nil policy selects PD².
func New(m int, policy prio.Policy) *Executive {
	return newExecutive(model.NewSystem(), m, policy)
}

func newExecutive(sys *model.System, m int, policy prio.Policy) *Executive {
	if m < 1 {
		panic("online: m must be ≥ 1")
	}
	if policy == nil {
		policy = prio.PD2{}
	}
	return &Executive{
		policy:   policy,
		sys:      sys,
		schedule: sched.New(sys, m, policy.Name(), "DVQ-online"),
		led:      admission.NewController(m),
		freeAt:   make([]rat.Rat, m),
		ready:    readyHeap{rank: prio.NewRanker(policy)},
	}
}

// Adopt returns an executive over a prebuilt task system with every
// subtask of sys released and none dispatched — the offline engines' way
// into the one dispatch loop (core.RunDVQ). The executive takes sys over.
// Its tasks are adopted closed, as if unregistered: their release
// sequences are complete, so they accept no further jobs and reserve no
// utilization, and no admission test is applied (offline experiments
// overload on purpose).
func Adopt(sys *model.System, m int, policy prio.Policy) *Executive {
	e := newExecutive(sys, m, policy)
	n := len(sys.Tasks)
	e.active = make([]bool, n)
	e.cursor = make([]int, n)
	e.lastFin = make([]rat.Rat, n)
	e.nextIdx = make([]int64, n)
	e.waiting = make(pendingHeap, 0, n)
	e.ready.xs = make([]readyHead, 0, n)
	for _, t := range sys.Tasks {
		seq := sys.Subtasks(t)
		e.nextIdx[t.ID] = 1
		if len(seq) > 0 {
			e.nextIdx[t.ID] = seq[len(seq)-1].Index + 1
			e.await(seq[0])
		}
	}
	e.pending = sys.NumSubtasks()
	return e
}

// ForgetHistory makes the executive keep nothing behind its cursors (see
// the package comment on retention). Call it before the first dispatch.
func (e *Executive) ForgetHistory() { e.schedule.DiscardAssignments() }

// PlanRegister answers what Register(name, w) would decide — admitted, or
// rejected with the reason — without changing any state. A caller that
// must journal an admission before applying it plans first; a Register
// after an admitted plan cannot fail.
func (e *Executive) PlanRegister(name string, w model.Weight) (admission.Decision, error) {
	return e.led.PlanRegister(name, w)
}

// Register adds a task with the given weight. Registration is admission
// control: it fails if the new total utilization of *active* tasks would
// exceed M (the queued target, while a drain-mode shrink is pending),
// since the tardiness bound (and any schedulability statement) would be
// lost. Tasks removed with Unregister no longer count; names are unique
// among the active ones.
func (e *Executive) Register(name string, w model.Weight) (*model.Task, error) {
	if err := e.admit(name, w); err != nil {
		return nil, err
	}
	return e.addTask(name, w, 0, rat.Zero, 1, true), nil
}

// admit enters an active task's weight in the ledger.
func (e *Executive) admit(name string, w model.Weight) error {
	d, err := e.led.Register(name, w)
	if err == nil && !d.Admitted {
		err = fmt.Errorf("online: %s", d.Reason)
	}
	return err
}

// addTask appends a task and its per-task dispatch state.
func (e *Executive) addTask(name string, w model.Weight, cursor int, lastFin rat.Rat, nextIdx int64, active bool) *model.Task {
	t := e.sys.AddTask(name, w)
	e.cursor = append(e.cursor, cursor)
	e.lastFin = append(e.lastFin, lastFin)
	e.nextIdx = append(e.nextIdx, nextIdx)
	e.active = append(e.active, active)
	return t
}

// Unregister removes t from the active set: its weight stops counting
// toward admission and further SubmitJob calls for it are rejected. It
// fails while t still has released-but-undispatched subtasks, because
// reclaiming the capacity of a task with queued work would void the
// tardiness bound for everyone else. Already-dispatched work stays in the
// schedule. If a drain-mode shrink is queued and the release brings Σwt
// within its target, the shrink applies here.
func (e *Executive) Unregister(t *model.Task) error {
	if t.ID < 0 || t.ID >= len(e.active) {
		return fmt.Errorf("online: unknown task %s", t)
	}
	if !e.active[t.ID] {
		return fmt.Errorf("online: task %s already unregistered", t)
	}
	if e.cursor[t.ID] < len(e.sys.Subtasks(t)) {
		return fmt.Errorf("online: task %s has %d undispatched subtasks; drain before unregistering",
			t, len(e.sys.Subtasks(t))-e.cursor[t.ID])
	}
	if err := e.led.Unregister(t.Name); err != nil {
		return err
	}
	e.active[t.ID] = false
	e.fit() // the release may have applied a queued drain-mode shrink
	return nil
}

// Active reports whether t is currently registered (counted in utilization
// and accepting jobs).
func (e *Executive) Active(t *model.Task) bool {
	return t.ID >= 0 && t.ID < len(e.active) && e.active[t.ID]
}

// ActiveUtilization returns Σ wt over currently registered tasks — the
// quantity Register admission-checks against M.
func (e *Executive) ActiveUtilization() rat.Rat { return e.led.Utilization() }

// Undispatched returns how many released subtasks of t have not been
// dispatched yet (the count that blocks Unregister).
func (e *Executive) Undispatched(t *model.Task) int {
	if t.ID < 0 || t.ID >= len(e.cursor) {
		return 0
	}
	return len(e.sys.Subtasks(t)) - e.cursor[t.ID]
}

// SetOnDispatch installs a persistent hook invoked for every scheduling
// decision, regardless of whether it was driven by Run or Drain (and in
// addition to any per-Run callback). The hook runs synchronously on the
// executive's goroutine — see the package comment's concurrency contract —
// so it must be fast and must not call back into the Executive. A nil
// hook removes it.
func (e *Executive) SetOnDispatch(fn func(Dispatch)) { e.onDispatch = fn }

// Now returns the executive's current virtual time.
func (e *Executive) Now() rat.Rat { return e.now }

// Schedule returns the schedule of everything dispatched so far.
func (e *Executive) Schedule() *sched.Schedule { return e.schedule }

// System returns the task system built up by job submissions.
func (e *Executive) System() *model.System { return e.sys }

// Pending returns the number of released but undispatched subtasks.
func (e *Executive) Pending() int { return e.pending }

// SubmitJob releases one job of t (W.E subtasks) no earlier than `at`. The
// subtasks get the smallest IS offsets consistent with eq. (5) and the
// arrival time, so a stream of SubmitJob calls at period boundaries yields
// exactly the periodic window pattern, and late calls yield the sporadic/IS
// right-shifted pattern. `at` must not precede virtual time.
func (e *Executive) SubmitJob(t *model.Task, at rat.Rat) error {
	return e.submit(t, at, 0)
}

// SubmitJobEarly is SubmitJob with early releasing: each subtask's
// eligibility is set up to `earliness` slots before its pseudo-release
// (but never before the arrival), per eq. (6). Early releasing lets PD²
// pull the job forward into slack without a second scheduler (the paper's
// Sec. 1 remark, experiment E13); optimality is unaffected.
func (e *Executive) SubmitJobEarly(t *model.Task, at rat.Rat, earliness int64) error {
	if earliness < 0 {
		return fmt.Errorf("online: negative earliness %d", earliness)
	}
	return e.submit(t, at, earliness)
}

func (e *Executive) submit(t *model.Task, at rat.Rat, earliness int64) error {
	if !e.Active(t) {
		return fmt.Errorf("online: job submitted for unregistered task %s", t)
	}
	if at.Less(e.now) {
		return fmt.Errorf("online: job of %s submitted at %s, before virtual time %s", t, at, e.now)
	}
	arrival := at.Ceil() // windows are integral; a mid-slot arrival rounds up
	seq := e.sys.Subtasks(t)
	idle := e.cursor[t.ID] == len(seq) // no head queued: this job's first subtask becomes it
	prevTheta := int64(0)
	prevElig := int64(0)
	if len(seq) > 0 {
		prevTheta = seq[len(seq)-1].Theta
		prevElig = seq[len(seq)-1].Elig
	}
	for k := int64(0); k < t.W.E; k++ {
		i := e.nextIdx[t.ID]
		base := rat.FloorDiv((i-1)*t.W.P, t.W.E) // release with θ = 0
		theta := arrival - base
		if theta < prevTheta {
			theta = prevTheta // eq. (5): offsets never decrease
		}
		s := e.sys.AddSubtask(t, i, theta, 0)
		elig := theta + base - earliness // r(T_i) per eq. (3), released early
		if elig < arrival {
			elig = arrival
		}
		if elig < prevElig {
			elig = prevElig
		}
		s.Elig = elig
		prevTheta = theta
		prevElig = elig
		e.nextIdx[t.ID] = i + 1
		e.pending++
		if idle && k == 0 {
			e.await(s)
		}
	}
	return nil
}

// await queues a task's new head — its first undispatched subtask — until
// its activation time: its eligibility, and for any but a task's first
// subtask the completion of its predecessor.
func (e *Executive) await(head *model.Subtask) {
	at := rat.FromInt(head.Elig)
	if head.Seq > 0 {
		at = rat.Max(at, e.lastFin[head.Task.ID])
	}
	e.waiting.push(at, head)
}

// Run advances virtual time to `until`, dispatching work as processors free
// and subtasks become ready. The yield function supplies each dispatched
// subtask's actual cost (nil means full quanta). Each dispatch is reported
// to onDispatch if non-nil. Decisions due after `until` are left for the
// next call.
func (e *Executive) Run(until rat.Rat, yield sched.YieldFn, onDispatch func(Dispatch)) error {
	if until.Less(e.now) {
		return fmt.Errorf("online: cannot run to %s, already at %s", until, e.now)
	}
	if yield == nil {
		yield = sched.FullCost
	}
	for {
		next, due := e.NextEvent()
		if !due || until.Less(next) {
			break
		}
		e.now = next
		e.dispatchAt(next, yield, onDispatch)
	}
	e.now = until
	return nil
}

// dispatchAt makes scheduling decisions for every processor free at time t:
// heads whose activation time has come move to the ready heap, and each
// free processor, in index order, starts the highest-priority one.
func (e *Executive) dispatchAt(t rat.Rat, yield sched.YieldFn, onDispatch func(Dispatch)) {
	for len(e.waiting) > 0 && !t.Less(e.waiting[0].at) {
		e.ready.push(e.waiting.pop())
	}
	for p := 0; p < len(e.freeAt) && e.ready.len() > 0; p++ {
		if t.Less(e.freeAt[p]) {
			continue
		}
		sub := e.ready.pop()
		cost := yield(sub)
		e.decision++
		e.schedule.Add(sched.Assignment{Sub: sub, Proc: p, Start: t, Cost: cost, Decision: e.decision})
		fin := t.Add(cost)
		id := sub.Task.ID
		e.cursor[id]++
		e.lastFin[id] = fin
		e.freeAt[p] = fin
		e.pending--
		if next := e.sys.Successor(sub); next != nil {
			e.await(next) // activates at fin > t at the earliest
		}
		// Cut the sequence back to sub, the last dispatched, once what lies
		// behind it is at least half of what is held: the copy-down is then
		// amortised O(1) per dispatch, and a task holds at most twice its
		// live window.
		if behind := e.cursor[id] - 1; !e.schedule.Retains() && 2*behind >= len(e.sys.Subtasks(sub.Task)) {
			e.sys.Forget(sub.Task, behind)
			e.cursor[id] = 1
		}
		d := Dispatch{Sub: sub, Proc: p, Start: t, Finish: fin, Decision: e.decision}
		if onDispatch != nil {
			onDispatch(d)
		}
		if e.onDispatch != nil {
			e.onDispatch(d)
		}
	}
}

// Drain runs until every released subtask has been dispatched and
// completed, returning the final virtual time. It is the natural way to
// finish a simulation after the last SubmitJob.
func (e *Executive) Drain(yield sched.YieldFn) (rat.Rat, error) {
	for e.pending > 0 {
		next, _ := e.NextEvent() // pending > 0: there is one, and Run dispatches at it
		if err := e.Run(next, yield, nil); err != nil {
			return e.now, err
		}
	}
	// Advance past the last completion so the schedule's makespan is final.
	// A restored executive's schedule restarts empty, but freeAt still
	// carries the pre-checkpoint completions; max(freeAt) is the makespan
	// of everything ever dispatched, so using it keeps Drain's final time
	// identical to an uninterrupted run's.
	end := e.schedule.Makespan()
	for _, f := range e.freeAt {
		end = rat.Max(end, f)
	}
	if e.now.Less(end) {
		if err := e.Run(end, yield, nil); err != nil {
			return e.now, err
		}
	}
	return e.now, nil
}

// NextEvent returns the time of the next scheduling decision — the first
// moment from now on at which a processor is free and a head is active,
// where Run dispatches at least one subtask — and false when no released
// subtask is undispatched. Nothing is queued to answer it: after
// dispatchAt either no head is ready or no processor is free, so nothing
// can happen before the earliest processor frees and, when no head is
// ready, the earliest pending head activates.
func (e *Executive) NextEvent() (rat.Rat, bool) {
	if e.pending == 0 {
		return rat.Zero, false
	}
	next := e.freeAt[0]
	for _, f := range e.freeAt[1:] {
		next = rat.Min(next, f)
	}
	if e.ready.len() == 0 {
		next = rat.Max(next, e.waiting[0].at)
	}
	return rat.Max(next, e.now), true
}

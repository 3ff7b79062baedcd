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
// ExampleExecutive (example_test.go) is the typical use: register a task,
// submit jobs, run virtual time forward, drain.
//
// # Concurrency contract
//
// An Executive is single-goroutine: every method — Register, Unregister,
// SubmitJob, Run, Drain, and the accessors — must be called from one
// goroutine (or under one external lock). The OnDispatch hook set with
// SetOnDispatch is invoked synchronously on that same goroutine, while the
// executive's internal state is mid-update; the hook must not call back
// into the Executive. Callers that need concurrent access should own the
// Executive the way internal/server.Tenant does: callers queue commands,
// one caller at a time (the tenant's drainer) makes every call, and the
// others read state it publishes — no lock around the executive itself.
//
// # One engine
//
// The executive is the repository's only dispatch loop: core.RunDVQ adopts
// a prebuilt system (Adopt) and runs it under DVQ, sfq.Run and drift.Run
// under a boundary clock (AdoptClocked). Each task with undispatched work
// has exactly one entry — its head — in a pending heap keyed by activation
// time or a ready heap keyed by an integer rank computed on entry (heads.go),
// so a decision costs O(log N) in the tasks that have work and nothing in
// those that do not. There is no event queue: a decision happens when a
// processor frees (under a clock, at its next boundary) or when work
// reaches an idle one, so the next decision time is a function of freeAt,
// the boundaries and the heads (NextEvent) and Run loops on it.
// core.RunDVQReference and sfq.RunReference are the oracles it is pinned to.
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
// The subtasks it cuts go on a free list (at most maxFree) that the next
// releases take from before they allocate, so after ForgetHistory a
// Dispatch.Sub stays valid only until its task's next dispatch.
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

	// The one Σwt ≤ M ledger: M is len(freeAt), shrink a queued drain-mode
	// shrink target (0 when none), and util and byName, at the end, Σwt
	// over the active tasks and the one index of them by name.
	shrink     int
	active     []bool // per task: still registered (accepting jobs, counted in util)
	onDispatch func(Dispatch)

	now      rat.Rat
	freeAt   []rat.Rat
	cursor   []int     // per task: next undispatched subtask in its sequence
	lastFin  []rat.Rat // per task: completion of the last dispatched subtask
	nextIdx  []int64   // per task: next subtask index to generate (1-based)
	pending  int       // released, undispatched subtasks
	decision int
	free     []*model.Subtask // cut subtasks submit reuses (ForgetHistory only), at most maxFree

	// Every task with cursor < len(sequence) has its head on exactly one
	// of these (heads.go); they are derived state, rebuilt by Restore.
	waiting pendingHeap
	ready   readyHeap

	// Boundary clock (nil under DVQ): per processor its next boundary and
	// quantum; with affinity, per task its last processor (−1 none).
	boundary, quantum []rat.Rat
	lastProc          []int

	// Register, Unregister and resizes read these, a decision never, so
	// they sit after every field a decision reads.
	util   rat.Rat
	byName map[string]*model.Task
}

// maxFree caps the free list: one round's releases of a wide tenant (128
// subtasks on wide_sched) with room to spare, and at most ≈ 48 KiB held
// after a burst.
const maxFree = 1024

// Dispatch reports one scheduling decision to the Run callback.
// Decision is the executive-wide 1-based decision number (the same
// counter the schedule's assignments carry), so observability layers can
// correlate a hook invocation with its position in the dispatch sequence
// without holding extra state. Deadline is Sub's pseudo-deadline and
// Tardiness its eq. (7) tardiness at Finish, which the executive works out
// once for its schedule and hands on, so no listener recomputes them.
type Dispatch struct {
	Sub       *model.Subtask
	Proc      int
	Start     rat.Rat
	Finish    rat.Rat
	Deadline  int64
	Tardiness rat.Rat
	Decision  int
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
		util:     rat.Zero,
		byName:   map[string]*model.Task{},
		freeAt:   make([]rat.Rat, m),
		ready:    readyHeap{pol: policy, rank: prio.NewRanker(policy)},
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
	e.ready.xs = make([]prio.Rank, 0, n)
	e.ready.heads = make([]*model.Subtask, n)
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
// rejected with the reason — without changing any state: an error for an
// empty or duplicate name, an invalid weight or a Σwt that leaves exact
// arithmetic, otherwise the decision. A caller that must journal an
// admission before applying it plans first; a Register after an admitted
// plan cannot fail.
//
// Admission is against the current M, or while a drain-mode shrink is
// queued against its target: new work must not push Σwt further above
// where the executive is draining to.
func (e *Executive) PlanRegister(name string, w model.Weight) (admission.Decision, error) {
	if name == "" {
		return admission.Decision{}, fmt.Errorf("admission: empty task name")
	}
	if e.byName[name] != nil {
		return admission.Decision{}, fmt.Errorf("admission: task %q already registered", name)
	}
	if err := w.Validate(); err != nil {
		return admission.Decision{}, err
	}
	total, ok := addUtil(e.util, w)
	if !ok {
		return admission.Decision{}, fmt.Errorf("admission: task %q weight %s: Σwt leaves exact-arithmetic range", name, w)
	}
	cap := e.M()
	if e.shrink != 0 {
		cap = e.shrink
	}
	if !model.Feasible(total, cap) {
		return admission.Decision{
			Scheduler: "PD2/DVQ",
			Guarantee: admission.NoGuarantee,
			Reason:    fmt.Sprintf("registering %q (weight %s) would raise Σwt to %s > M = %d", name, w, total, cap),
		}, nil
	}
	return admission.Decision{
		Scheduler: "PD2/DVQ",
		Admitted:  true,
		Guarantee: admission.SoftRealTime,
		Reason:    fmt.Sprintf("Σwt = %s ≤ M = %d; DVQ tardiness ≤ 1 quantum (Theorem 3)", total, cap),
	}, nil
}

// addUtil is u + w, or false where the sum leaves exact int64 arithmetic:
// periods are bounded, but the common denominator of many coprime ones
// is not, and rat panics rather than wrap.
func addUtil(u rat.Rat, w model.Weight) (sum rat.Rat, ok bool) {
	defer func() { ok = recover() == nil }()
	return u.Add(w.Rat()), true
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

// admit is PlanRegister with a rejection as an error.
func (e *Executive) admit(name string, w model.Weight) error {
	d, err := e.PlanRegister(name, w)
	if err == nil && !d.Admitted {
		err = fmt.Errorf("online: %s", d.Reason)
	}
	return err
}

// addTask appends a task and its per-task dispatch state; an active one
// enters the ledger, which admit has checked.
func (e *Executive) addTask(name string, w model.Weight, cursor int, lastFin rat.Rat, nextIdx int64, active bool) *model.Task {
	t := e.sys.AddTask(name, w)
	e.cursor = append(e.cursor, cursor)
	e.lastFin = append(e.lastFin, lastFin)
	e.nextIdx = append(e.nextIdx, nextIdx)
	e.active = append(e.active, active)
	if active {
		e.byName[name] = t
		e.util = e.util.Add(w.Rat())
	}
	return t
}

// Task returns the active task named name, or nil when none is.
func (e *Executive) Task(name string) *model.Task { return e.byName[name] }

// ActiveTasks returns the number of active tasks.
func (e *Executive) ActiveTasks() int { return len(e.byName) }

// PlanUnregister returns why Unregister(t) would fail, or nil: t must be
// active, and it must have no released-but-undispatched subtasks, because
// reclaiming the capacity of a task with queued work would void the
// tardiness bound for everyone else. Like CheckSubmit's, its errors are
// bare clauses for the caller to prefix.
func (e *Executive) PlanUnregister(t *model.Task) error {
	if !e.Active(t) {
		return fmt.Errorf("task %s is not registered", t)
	}
	if n := e.Undispatched(t); n > 0 {
		return fmt.Errorf("task %q has %d undispatched subtasks; drain before unregistering", t.Name, n)
	}
	return nil
}

// Unregister removes t from the active set: its weight stops counting
// toward admission and further SubmitJob calls for it are rejected. It
// fails where PlanUnregister says. Already-dispatched work stays in the
// schedule. If a drain-mode shrink is queued and the release brings Σwt
// within its target, the shrink applies here.
func (e *Executive) Unregister(t *model.Task) error {
	if err := e.PlanUnregister(t); err != nil {
		return fmt.Errorf("online: %w", err)
	}
	e.active[t.ID] = false
	delete(e.byName, t.Name)
	e.util = e.util.Sub(t.W.Rat())
	if e.shrink != 0 && model.Feasible(e.util, e.shrink) {
		e.fit(e.shrink)
		e.shrink = 0
	}
	return nil
}

// Active reports whether t is currently registered (counted in utilization
// and accepting jobs).
func (e *Executive) Active(t *model.Task) bool {
	return t.ID >= 0 && t.ID < len(e.active) && e.active[t.ID]
}

// ActiveUtilization returns Σ wt over currently registered tasks — the
// quantity Register admission-checks against M.
func (e *Executive) ActiveUtilization() rat.Rat { return e.util }

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
	return e.submit(t, at, earliness)
}

// CheckSubmit returns why SubmitJobEarly(t, at, earliness) would fail, or
// nil: t must be active, `at` must not precede virtual time, and earliness
// must not be negative. Its errors are bare clauses: the executive's own
// say "online: …", and a caller validating ahead of the call (a service
// that journals first) prefixes its own.
func (e *Executive) CheckSubmit(t *model.Task, at rat.Rat, earliness int64) error {
	switch {
	case !e.Active(t):
		return fmt.Errorf("job submitted for unregistered task %s", t)
	case at.Less(e.now):
		return fmt.Errorf("job of %q submitted at %s, before virtual time %s", t.Name, at, e.now)
	case earliness < 0:
		return fmt.Errorf("negative earliness %d", earliness)
	}
	return nil
}

func (e *Executive) submit(t *model.Task, at rat.Rat, earliness int64) error {
	if err := e.CheckSubmit(t, at, earliness); err != nil {
		return fmt.Errorf("online: %w", err)
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
		elig := theta + base - earliness // r(T_i) per eq. (3), released early
		if elig < arrival {
			elig = arrival
		}
		if elig < prevElig {
			elig = prevElig
		}
		s := e.release(t, i, theta, elig)
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

// release appends subtask i of t, reusing a cut one when the free list has
// one.
func (e *Executive) release(t *model.Task, i, theta, elig int64) *model.Subtask {
	n := len(e.free)
	if n == 0 {
		return e.sys.AddSubtask(t, i, theta, elig)
	}
	s := e.free[n-1]
	e.free = e.free[:n-1]
	*s = model.Subtask{Task: t, Index: i, Theta: theta, Elig: elig}
	return e.sys.AppendSubtask(s)
}

// await queues a task's new head — its first undispatched subtask — until
// its activation time: its eligibility, and for any but a task's first
// subtask the completion of its predecessor.
func (e *Executive) await(head *model.Subtask) {
	at := rat.FromInt(head.Elig)
	if head.Seq > 0 {
		at = rat.Max(at, e.lastFin[head.Task.ID])
	}
	e.ready.setHead(head)
	e.waiting.push(at, head.Task.ID)
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

// dispatchAt makes scheduling decisions for every processor that decides
// at time t (free, and under a clock on a boundary): heads whose activation
// time has come move to the ready heap, and the highest-priority one goes
// to the first deciding processor in index order — or, with affinity, to
// its task's previous processor when that one decides too.
func (e *Executive) dispatchAt(t rat.Rat, yield sched.YieldFn, onDispatch func(Dispatch)) {
	for len(e.waiting) > 0 && !t.Less(e.waiting[0].at) {
		e.ready.push(e.waiting.pop())
	}
	for p := 0; p < len(e.freeAt) && e.ready.len() > 0; p++ {
		if !e.decides(p, t) {
			continue
		}
		sub := e.ready.pop()
		id := sub.Task.ID
		proc := p
		if e.lastProc != nil {
			if q := e.lastProc[id]; q > p && e.decides(q, t) {
				proc, p = q, p-1 // p still decides: it takes the next head
			}
			e.lastProc[id] = proc
		}
		cost := yield(sub)
		e.decision++
		fin := t.Add(cost)
		deadline := sub.Deadline()
		tard := sched.Tardiness(fin, deadline)
		e.schedule.AddDecided(sched.Assignment{Sub: sub, Proc: proc, Start: t, Cost: cost, Decision: e.decision}, fin, tard)
		e.cursor[id]++
		e.lastFin[id] = fin
		e.freeAt[proc] = fin
		if e.boundary != nil {
			e.boundary[proc] = t.Add(e.quantum[proc])
		}
		e.pending--
		if next := e.sys.Successor(sub); next != nil {
			e.await(next) // activates at fin > t at the earliest
		}
		// Cut the sequence back to sub, the last dispatched, once what lies
		// behind it is at least half of what is held: the copy-down is then
		// amortised O(1) per dispatch, and a task holds at most twice its
		// live window.
		if behind := e.cursor[id] - 1; !e.schedule.Retains() && 2*behind >= len(e.sys.Subtasks(sub.Task)) {
			cut := e.sys.Subtasks(sub.Task)[:behind]
			e.free = append(e.free, cut[:min(len(cut), maxFree-len(e.free))]...)
			e.sys.Forget(sub.Task, behind)
			e.cursor[id] = 1
		}
		d := Dispatch{Sub: sub, Proc: proc, Start: t, Finish: fin, Deadline: deadline, Tardiness: tard, Decision: e.decision}
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
// moment from now on at which a processor decides and a head is active,
// where Run dispatches at least one subtask — and false when no released
// subtask is undispatched. Nothing is queued to answer it: after
// dispatchAt either no head is ready or no processor decides, so nothing
// can happen before the earliest processor frees and, when no head is
// ready, the earliest pending head activates — under a clock, before the
// first boundary of some processor at or after both.
func (e *Executive) NextEvent() (rat.Rat, bool) {
	if e.pending == 0 {
		return rat.Zero, false
	}
	from := e.now
	if e.ready.len() == 0 {
		from = rat.Max(from, e.waiting[0].at)
	}
	if e.boundary != nil {
		next := e.boundaryFrom(0, from)
		for p := 1; p < len(e.boundary); p++ {
			next = rat.Min(next, e.boundaryFrom(p, from))
		}
		return next, true
	}
	next := e.freeAt[0]
	for _, f := range e.freeAt[1:] {
		next = rat.Min(next, f)
	}
	return rat.Max(next, from), true
}

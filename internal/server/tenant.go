package server

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"desyncpfair/internal/admission"
	"desyncpfair/internal/model"
	"desyncpfair/internal/obs"
	"desyncpfair/internal/online"
	"desyncpfair/internal/prio"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/wal"
)

// Tenant wraps one online.Executive behind one FIFO queue of commands.
// online.Executive is single-goroutine by contract; every command —
// request, control command, stop — goes through the queue in order, and
// one caller at a time drains it (send and drain, loop.go): the caller
// that finds the tenant idle runs the batch it finds, its own command
// first, then hands the role to the next waiter. HTTP handlers validate
// the wire input, queue a command (a single submit, or the closure the
// drainer runs for anything else), and wait on its completion; the
// drainer journals, applies, and publishes an immutable tenantSnap
// through an atomic pointer. Every read path — Info, /metrics, stream
// replay, recovery verification — loads the snapshot and never
// synchronizes with the writer, so scrapes and followers cost the hot
// path nothing. An idle tenant holds no goroutine.
//
// Field ownership:
//   - drainer-owned (the "loop-owned" fields; no lock: only the caller
//     holding the drainer role may touch them once the tenant is
//     published): ex — which is also the tenant's one Σwt ≤ M ledger and
//     its one index of active tasks: M, the queued shrink target, Σwt and
//     the tasks by name are asked of it and kept nowhere else (readers use
//     the snapshot) — log (its manifest included, which seal extends),
//     maxTar, reject, digest, lsn, jobs, valid, lags, worst, batch, and
//     the open command obs.tr keeps.
//   - mu guards queue, draining and stopped (set when a stop applies).
//   - immutable after construction: id, policy, closed (closed by the
//     drainer when a stop applies), obs (tracer + histograms).
//   - atomics: snap (published state), grown (the next-growth channel),
//     hooks (journal callbacks).
type Tenant struct {
	id     string
	policy string

	mu       sync.Mutex
	queue    []*command
	draining bool
	stopped  bool
	closed   chan struct{}

	snap atomic.Pointer[tenantSnap]
	// grown is what Subscribe hands out: nil until somebody asks, swapped
	// out and closed by publish once the dispatch log it shows has grown.
	grown atomic.Pointer[chan struct{}]
	hooks atomic.Pointer[journalHooks]
	obs   tenantObs

	// Drainer-owned state.
	ex *online.Executive
	// log is the dispatch history (dispatchlog.go): the wire bytes every
	// reader is served, or, in an in-memory tenant, compact records
	// rendered for each reader.
	log    dispatchLog
	maxTar rat.Rat
	reject int64
	// digest is the dispatch digest of the last command that made decisions
	// (journaled tenants only; settle computes it).
	digest dispatchDigest
	// lsn is the last journal record of this tenant it has applied: its
	// create, a command or a digest (journal, settle, replay), never its
	// delete. A checkpoint carries it.
	lsn uint64
	// jobs and valid are reusable buffers of the submit group being
	// applied: its jobs, which its journal record holds, and what
	// validateSubmit found for each.
	jobs  []wal.Job
	valid []submitJob
	// lags tallies the lag of each decision since the last settle, which
	// merges it into the lag histograms; worst is the largest among them,
	// the lag the command's dispatch trace event reports.
	lags  *obs.Tally
	worst rat.Rat
	// batch is the drainer's buffer of the commands it took off the queue.
	batch []*command
	// idem remembers the responses of keyed job submits (idemMemory).
	idem idemMemory
}

// tenantSnap is the immutable state image the loop publishes after every
// command. log is a view of the loop's dispatch log as of that command
// (see dispatchLog): the loop only ever appends past it, so readers serve
// its bytes with zero copying.
type tenantSnap struct {
	now      rat.Rat
	util     rat.Rat
	m        int // current processor count (resizable)
	pendingM int // queued drain-mode shrink target, 0 when none
	tasks    int
	pending  int
	log      dispatchLog
	maxTar   rat.Rat
	reject   int64
	// digest is what replay checks the journal's next dispatch digest of
	// this tenant against: computed when the command applied, it does not
	// need the frames to be resident still when that record arrives.
	digest dispatchDigest
	lsn    uint64
}

// dispatchDigest is what the journal keeps of the decisions one command
// made (wal.OpDispatch): they are seqs first .. first+count-1 of the
// dispatch log, and crc checksums their wire frames. The schedule is a pure
// function of the commands, so that is all replay needs to tell whether it
// regenerated the same decisions, byte for byte.
type dispatchDigest struct {
	first, count int64
	crc          uint32
}

// tenantObs bundles the tenant's observability sinks, fixed when the
// tenant is built (newTenantCore): the trace ring, the per-tenant
// histograms, and the aggregate sinks.
type tenantObs struct {
	tr        *obs.Tracer    // command-lifecycle trace ring
	submitAck *obs.Histogram // submit→ack latency, this tenant
	lag       *obs.Histogram // dispatch tardiness in quanta, this tenant
	sobs      *serverObs     // aggregate sinks (nil on a bare tenant)
}

// PolicyByName maps a wire policy name to a prio.Policy: the names
// prio.ByName knows, so a name a scenario spec validates is a name the
// service takes. Empty selects PD².
func PolicyByName(name string) (prio.Policy, error) {
	if name == "" {
		return prio.PD2{}, nil
	}
	if pol := prio.ByName(name); pol != nil {
		return pol, nil
	}
	return nil, fmt.Errorf("server: unknown policy %q (want PD2, PD, PF or EPDF)", name)
}

// NewTenant creates an in-memory tenant with id on m processors under the
// named policy ("" = PD²), instrumented by standalone sinks of its own.
func NewTenant(id string, m int, policyName string) (*Tenant, error) {
	return newTenant(id, m, policyName, nil, false)
}

// newTenant creates and publishes a tenant; journaled fixes its dispatch
// log's form (newTenantCore).
func newTenant(id string, m int, policyName string, o *serverObs, journaled bool) (*Tenant, error) {
	if id == "" {
		return nil, fmt.Errorf("server: empty tenant id")
	}
	if m < 1 {
		return nil, fmt.Errorf("server: tenant %q needs m ≥ 1, got %d", id, m)
	}
	if m > MaxM {
		return nil, fmt.Errorf("server: tenant %q wants m = %d > %d processors", id, m, MaxM)
	}
	pol, err := PolicyByName(policyName)
	if err != nil {
		return nil, err
	}
	t := newTenantCore(id, pol.Name(), online.New(m, pol), o, journaled)
	t.publish()
	return t, nil
}

// newTenantCore builds the shared tenant shell, unpublished: callers
// finish wiring drainer-owned state (restoreTenant installs the log) and
// then call publish. Both the live-create and the recovery-restore path
// come through here, so this is
// where every tenant is instrumented: by the server's observability (its
// clock, the aggregate histograms /metrics sums across tenants), or, when o is nil, by standalone sinks. A tenant may
// live forever, so its executive keeps nothing behind its cursors: the
// dispatch log is the only record of a past decision. It is also where
// the log's form is fixed, before any command runs: a journaled tenant — of a
// server with a data dir, restored, replayed or following — keeps wire
// bytes, which it digests, snapshots and seals; any other keeps its log
// cold.
func newTenantCore(id, policy string, ex *online.Executive, o *serverObs, journaled bool) *Tenant {
	clock := obs.Clock(obs.Real{})
	if o != nil {
		clock = o.clock
	}
	ex.ForgetHistory()
	t := &Tenant{
		id:     id,
		policy: policy,
		closed: make(chan struct{}),
		ex:     ex,
		maxTar: rat.Zero,
		lags:   obs.NewTally(obs.QuantaBuckets),
		worst:  rat.Zero,
		obs: tenantObs{
			tr:        obs.NewTracer(obs.NewRing(id, defaultTraceCap), clock),
			submitAck: obs.NewHistogram(obs.DefaultLatencyBuckets),
			lag:       obs.NewHistogram(obs.QuantaBuckets),
			sobs:      o,
		},
	}
	t.log.cold = !journaled
	for _, task := range ex.System().Tasks {
		t.log.name(task.ID, task.Name, task.W)
	}
	t.ex.SetOnDispatch(t.record)
	return t
}

// publish stores the post-command state image and, if the dispatch log
// grew since the last published snapshot, closes the channel Subscribe
// handed out: a follower it wakes already reads the new snapshot.
// Drainer only, or before the tenant is first published, while no
// command can run.
func (t *Tenant) publish() {
	prev := t.snap.Load()
	t.snap.Store(&tenantSnap{
		now:      t.ex.Now(),
		util:     t.ex.ActiveUtilization(),
		m:        t.ex.M(),
		pendingM: t.ex.PendingM(),
		tasks:    t.ex.ActiveTasks(),
		pending:  t.ex.Pending(),
		log:      t.log,
		maxTar:   t.maxTar,
		reject:   t.reject,
		digest:   t.digest,
		lsn:      t.lsn,
	})
	if prev != nil && t.log.len() > prev.log.len() {
		if ch := t.grown.Swap(nil); ch != nil {
			close(*ch)
		}
	}
}

// traceRing returns the tenant's trace ring for the streaming handler.
func (t *Tenant) traceRing() *obs.Ring {
	return t.obs.tr.Ring()
}

// obsSnapshot snapshots the tenant for /metrics.
func (t *Tenant) obsSnapshot() tenantObsSnap {
	o := &t.obs
	return tenantObsSnap{
		id:        t.id,
		state:     t.snap.Load(),
		submitAck: o.submitAck.Snapshot(),
		lag:       o.lag.Snapshot(),
		traceLen:  o.tr.Ring().Next(),
	}
}

// observeSubmitAck records the submit→ack latency of n jobs acknowledged
// together into the tenant and aggregate histograms. A histogram is safe
// for concurrent use, so the HTTP handler calls this directly, once per
// request.
func (t *Tenant) observeSubmitAck(d time.Duration, n int) {
	o := &t.obs
	s := d.Seconds()
	o.submitAck.ObserveN(s, uint64(n))
	if o.sobs != nil {
		o.sobs.submitAck.ObserveN(s, uint64(n))
	}
}

// SetJournal installs the durability hooks: append enqueues one record —
// a command, or the digest of the decisions one made — and fail
// permanently wedges the journal after a post-journal apply failure.
// append returns a wal.Commit the enqueuing handler waits on after the
// command completes (group commit: the first waiter fsyncs for everyone
// queued behind it); a group record's Jobs is good until it returns (the
// tenant reuses its buffer). batch is never called — a group is
// one record, because a frame group could tear — and stays in the signature
// for bench/, which is not edited with the code it measures (ROADMAP item
// 10c). Like SetOnDispatch it must be called before the tenant serves
// traffic. Hooks installed here seal no history: the tenant keeps its log.
func (t *Tenant) SetJournal(append func(wal.Record) (wal.Commit, error), batch func([]wal.Record) (wal.Commit, error), fail func(error)) {
	t.hooks.Store(&journalHooks{append: append, fail: fail})
}

// record is the executive's OnDispatch hook. It runs on the drainer
// (dispatches only happen inside a command's apply), so plain field
// access is safe. A decision costs the engine and one entry of the
// log's tail — its frame, or in a cold log its compact record — and its
// lag is tallied. Everything
// else happens once per command — the trace event (applyRun, before the
// apply stage), and in settle the lag histograms, the journal's digest
// and the follower wakeup.
func (t *Tenant) record(d online.Dispatch) {
	if t.maxTar.Less(d.Tardiness) {
		t.maxTar = d.Tardiness
	}
	if t.worst.Less(d.Tardiness) {
		t.worst = d.Tardiness
	}
	t.log.append(d.Sub.Task.ID, d.Sub.Task.Name, d.Sub.Index, d.Proc, d.Start, d.Finish, d.Deadline, d.Tardiness)
	t.lags.Observe(d.Tardiness.Float64())
}

// ID returns the tenant id.
func (t *Tenant) ID() string { return t.id }

// --- public API: each method enqueues one command and waits ---

// RegisterTask admits a task against the tenant's Σwt ≤ M ledger and,
// when admitted, registers it with the executive. A negative decision
// leaves the tenant unchanged and is counted in the rejection metric. The
// returned commit is the journal position to wait durable before acking
// (zero when nothing was journaled).
func (t *Tenant) RegisterTask(name string, w model.Weight) (admission.Decision, wal.Commit, error) {
	var d admission.Decision
	c, err := t.do(func() (c wal.Commit, err error) {
		d, c, err = t.applyRegister(name, w)
		return c, err
	})
	return d, c, err
}

// UnregisterTask removes a task and releases its capacity. It fails while
// the task still has undispatched subtasks (advance or drain first).
func (t *Tenant) UnregisterTask(name string) (wal.Commit, error) {
	return t.do(func() (wal.Commit, error) { return t.applyUnregister(name) })
}

// SubmitJobReq releases one job of the named task. An empty At submits at
// the tenant's current virtual time (the race-free choice for concurrent
// clients); otherwise At is parsed as a rat and must not precede it. An
// idempotency key makes the submit safe to retry.
func (t *Tenant) SubmitJobReq(req SubmitJobRequest) (SubmitJobResponse, wal.Commit, error) {
	res := t.exec(&command{job: req.job()})
	return res.submit, res.commit, res.err
}

// SubmitJobs releases a batch of jobs atomically: every job is validated
// against the tenant's current state first (all-or-nothing — one bad job
// rejects the whole batch with no state change), then the batch is
// journaled as one record and applied. The caller waits on the one
// returned commit, so N jobs cost one frame and at most one fsync.
func (t *Tenant) SubmitJobs(reqs []SubmitJobRequest) (SubmitJobsResponse, wal.Commit, error) {
	var resp SubmitJobsResponse
	c, err := t.do(func() (c wal.Commit, err error) {
		t.jobs = t.jobs[:0]
		for i := range reqs {
			t.jobs = append(t.jobs, reqs[i].job())
		}
		results := make([]SubmitJobResponse, len(reqs))
		if c, err = t.applySubmitBatch(t.jobs, results); err == nil {
			resp = SubmitJobsResponse{Accepted: len(reqs), Results: results}
		}
		return c, err
	})
	return resp, c, err
}

// Advance moves virtual time forward. Exactly one of until/by must be
// non-empty; `by` is relative to the tenant's current virtual time.
func (t *Tenant) Advance(until, by string) (AdvanceResponse, wal.Commit, error) {
	var resp AdvanceResponse
	c, err := t.do(func() (c wal.Commit, err error) {
		resp, c, err = t.applyAdvance(until, by)
		return c, err
	})
	return resp, c, err
}

// Drain dispatches everything released so far and returns the final
// virtual time.
func (t *Tenant) Drain() (AdvanceResponse, wal.Commit, error) {
	var resp AdvanceResponse
	c, err := t.do(func() (c wal.Commit, err error) {
		resp, c, err = t.applyDrain()
		return c, err
	})
	return resp, c, err
}

// Resize changes the tenant's processor count. A grow takes effect at
// the next quantum boundary; a shrink below current utilization is
// rejected (Outcome "rejected", nothing journaled), or with drain queued
// as a pending target that applies once unregisters bring Σwt within it.
func (t *Tenant) Resize(m int, drain bool) (ResizeResponse, wal.Commit, error) {
	var resp ResizeResponse
	c, err := t.do(func() (c wal.Commit, err error) {
		resp, c, err = t.applyResize(m, drain)
		return c, err
	})
	return resp, c, err
}

// --- the write path (drainer only) ---
//
// Every command runs the same three steps: validate completely against
// current state (a rejection leaves nothing behind and is not journaled),
// journal, apply — the last two in Tenant.apply (applySubmits, whose
// coalesced singles trace one command per job, keeps its own). Validation
// is what makes journal-before-apply safe: a journaled command must apply —
// on this server now and on every replay of the journal later.

// journal opens the traced command and, on a durable tenant, journals its
// one record before anything is applied. A refusal fails the command with
// nothing applied.
func (t *Tenant) journal(task string, at *rat.Rat, rec wal.Record) (wal.Commit, error) {
	h := t.hooks.Load()
	t.obs.tr.Begin(rec.Op, task, at)
	if h == nil {
		return wal.Commit{}, nil
	}
	commit, err := h.append(rec)
	t.obs.tr.Stage(obs.StageWALAppend, err)
	if err != nil {
		return wal.Commit{}, err
	}
	t.lsn = max(t.lsn, commit.LSN)
	return commit, nil
}

// wedge fails a command that is journaled but did not apply. Validation
// makes that unreachable (Drain's convergence guards are the one failure
// it cannot rule out), but if it happens the journal no longer matches
// applied state, and refusing further writes is the only way to keep
// recovered state trustworthy.
func (t *Tenant) wedge(err error) error {
	if h := t.hooks.Load(); h != nil && h.fail != nil {
		h.fail(err)
	}
	t.obs.tr.Stage(obs.StageApply, err)
	return err
}

// apply journals a validated command's record rec (journal: task and at
// label its trace), then runs fn, the change to loop-owned state, and
// closes the command's apply stage. fn failing wedges the journal.
func (t *Tenant) apply(task string, at *rat.Rat, rec wal.Record, fn func() error) (wal.Commit, error) {
	commit, err := t.journal(task, at, rec)
	if err != nil {
		return wal.Commit{}, err
	}
	if err := fn(); err != nil {
		return wal.Commit{}, t.wedge(err)
	}
	t.obs.tr.Stage(obs.StageApply, nil)
	return commit, nil
}

func (t *Tenant) applyRegister(name string, w model.Weight) (admission.Decision, wal.Commit, error) {
	if w.P > MaxPeriod {
		return admission.Decision{}, wal.Commit{}, fmt.Errorf("server: task %q period %d exceeds %d", name, w.P, MaxPeriod)
	}
	d, err := t.ex.PlanRegister(name, w)
	if err != nil {
		return admission.Decision{}, wal.Commit{}, err
	}
	if !d.Admitted {
		// Rejections are not journaled: they leave no state behind, and
		// the rejection metric is restored from the last snapshot.
		t.reject++
		return d, wal.Commit{}, nil
	}
	commit, err := t.apply(name, nil, wal.Record{Op: wal.OpTaskRegister, Tenant: t.id, Name: name, E: w.E, P: w.P}, func() error {
		task, err := t.ex.Register(name, w)
		if err == nil {
			t.log.name(task.ID, name, w)
		}
		return err
	})
	if err != nil {
		return admission.Decision{}, wal.Commit{}, err
	}
	return d, commit, nil
}

// task returns the active task named name, or the refusal of a command
// that names no such task.
func (t *Tenant) task(name string) (*model.Task, error) {
	if task := t.ex.Task(name); task != nil {
		return task, nil
	}
	return nil, fmt.Errorf("server: tenant %q has no task %q", t.id, name)
}

func (t *Tenant) applyUnregister(name string) (wal.Commit, error) {
	task, err := t.task(name)
	if err != nil {
		return wal.Commit{}, err
	}
	if err := t.ex.PlanUnregister(task); err != nil {
		return wal.Commit{}, fmt.Errorf("server: %w", err)
	}
	// The release applies a queued drain-mode shrink once Σwt fits it.
	return t.apply(name, nil, wal.Record{Op: wal.OpTaskUnregister, Tenant: t.id, Name: name}, func() error {
		return t.ex.Unregister(task)
	})
}

// applyResize changes the tenant's processor count. A rejection (a
// non-drain shrink below Σwt) is counted and not journaled, exactly like a
// rejected registration; applied and queued resizes journal an OpResize
// record so recovery replays the capacity history.
func (t *Tenant) applyResize(m int, drain bool) (ResizeResponse, wal.Commit, error) {
	plan, err := t.ex.PlanResize(m, drain)
	if err != nil {
		return ResizeResponse{}, wal.Commit{}, fmt.Errorf("server: tenant %q resize %w", t.id, err)
	}
	if plan.Outcome == admission.ResizeRejected {
		t.reject++
		return t.resizeResponse(plan), wal.Commit{}, nil
	}
	mode := ""
	if plan.Outcome == admission.ResizeQueued {
		mode = "drain"
	}
	mq := rat.FromInt(int64(m))
	commit, err := t.apply("", &mq, wal.Record{Op: wal.OpResize, Tenant: t.id, M: m, Mode: mode}, func() (err error) {
		plan, err = t.ex.ResizeDrain(m, drain)
		return err
	})
	if err != nil {
		return ResizeResponse{}, wal.Commit{}, err
	}
	return t.resizeResponse(plan), commit, nil
}

// resizeResponse shapes a resize decision for the wire. Drainer only
// (reads the ledger).
func (t *Tenant) resizeResponse(d admission.ResizeDecision) ResizeResponse {
	return ResizeResponse{
		Outcome:     d.Outcome.String(),
		M:           d.M,
		PendingM:    d.PendingM,
		Utilization: t.ex.ActiveUtilization().String(),
		Reason:      d.Reason,
	}
}

// submitJob is what validateSubmit found for one job on its way through
// applySubmits, which fills in resp. cmd is the single-submit command it
// answers (nil for a job of a batch).
type submitJob struct {
	task *model.Task
	when rat.Rat
	resp SubmitJobResponse
	cmd  *command
}

// applySubmits is the one submit applier: it journals validated jobs as
// one record (wal.JobSubmit: a group is all of it or none of it to a
// crash or a cut replication stream), releases each into the executive,
// and remembers each keyed response; valid[i] is what validation found for
// jobs[i]. Both front ends — the atomic batch and the run of coalesced
// single submits, which differ in how they validate and dedupe — end
// here, as does the replay of every record form, and a lone submit is a
// run of one.
// Jobs are validated independently against the state at entry; submits
// only add pending work and never move virtual time, so independent
// validity implies sequential validity.
func (t *Tenant) applySubmits(jobs []wal.Job, valid []submitJob) (wal.Commit, error) {
	if len(jobs) == 0 {
		return wal.Commit{}, nil
	}
	// Each job's at becomes its resolved arrival, rendered once — and once
	// per group for the common empty at, which resolves every such job to
	// the same now — and the record and the response read it from there.
	// The record carries the *resolved* time: "now" is something only the
	// live server knows, and replay must not re-resolve it.
	now := ""
	for i := range jobs {
		j := &jobs[i]
		if j.At != "" {
			j.At = valid[i].when.String()
		} else {
			if now == "" {
				now = valid[i].when.String()
			}
			j.At = now
		}
	}
	commit, err := t.journal(jobs[0].Name, &valid[0].when, wal.JobSubmit(t.id, jobs))
	if err != nil {
		return wal.Commit{}, err
	}
	// A batch — and so a group record replayed or followed — is one traced
	// command. Coalesced single submits are one command per request: the
	// group's one record covered each of them.
	singles := valid[0].cmd != nil
	for i := range jobs {
		j, v := &jobs[i], &valid[i]
		if singles && i > 0 {
			t.obs.tr.Begin(wal.OpJobSubmit, j.Name, &v.when)
			if t.hooks.Load() != nil {
				t.obs.tr.Stage(obs.StageWALAppend, nil)
			}
		}
		if err := t.ex.SubmitJobEarly(v.task, v.when, j.Earliness); err != nil {
			return wal.Commit{}, fmt.Errorf("job %d: %w", i, t.wedge(err))
		}
		if singles {
			t.obs.tr.Stage(obs.StageApply, nil)
		}
		v.resp = SubmitJobResponse{At: j.At, Pending: t.ex.Pending()}
		t.idem.remember(j.Key, v.resp)
	}
	if !singles {
		t.obs.tr.Stage(obs.StageApply, nil)
	}
	return commit, nil
}

// validateSubmit runs the executive's check of a job submit and the
// service's bounds, and resolves an empty at to the tenant's current
// virtual time, reporting the task and time it found. A nil error
// guarantees applySubmits cannot fail on job.
func (t *Tenant) validateSubmit(job *wal.Job) (submitJob, error) {
	task, err := t.task(job.Name)
	if err != nil {
		return submitJob{}, err
	}
	when := t.ex.Now()
	if job.At != "" {
		if when, err = rat.Parse(job.At); err != nil {
			return submitJob{}, err
		}
		if err := checkTime("arrival", when); err != nil {
			return submitJob{}, err
		}
	}
	if err := t.ex.CheckSubmit(task, when, job.Earliness); err != nil {
		return submitJob{}, fmt.Errorf("server: %w", err)
	}
	if job.Earliness > MaxEarliness {
		return submitJob{}, fmt.Errorf("server: earliness %d exceeds %d", job.Earliness, MaxEarliness)
	}
	if len(job.Key) > MaxKeyLen {
		return submitJob{}, fmt.Errorf("server: idempotency key length %d exceeds %d", len(job.Key), MaxKeyLen)
	}
	return submitJob{task: task, when: when}, nil
}

// checkBacklog refuses n more subtasks on top of the pending ones and the
// queued ones a submit group has already accepted, where they would pass
// MaxBacklog.
func (t *Tenant) checkBacklog(queued, n int64) error {
	if n > MaxBacklog {
		return fmt.Errorf("%w: %d subtasks > %d", errOverBacklog, n, MaxBacklog)
	}
	if pending := int64(t.ex.Pending()) + queued; pending+n > MaxBacklog {
		return fmt.Errorf("%w: %d pending + %d > %d subtasks", errBacklogFull, pending, n, MaxBacklog)
	}
	return nil
}

// applySubmitBatch is the atomic front end of applySubmits: one bad job
// rejects the whole batch with no state change. Each job's answer goes
// into results, which is nil (a replay's) or has a slot per job.
func (t *Tenant) applySubmitBatch(jobs []wal.Job, results []SubmitJobResponse) (wal.Commit, error) {
	// Idempotency across a batch is all-or-nothing, mirroring the batch's
	// own atomicity: a retry where every keyed job was already applied
	// replays the cached responses; a partial overlap is rejected outright.
	// A faithful retry never meets one: the batch is one journal record, so
	// a crash, a recovery or a promoted follower holds all of its keys or
	// none — unless the journal was written before that (a group of
	// per-job frames, which a crash could cut), or MaxIdemKeys evicted some.
	if done, err := t.batchIdemCheck(jobs, results); err != nil || done {
		return wal.Commit{}, err
	}
	valid := slices.Grow(t.valid[:0], len(jobs))[:len(jobs)]
	t.valid = valid[:0]
	subtasks := int64(0)
	for i := range jobs {
		var err error
		if valid[i], err = t.validateSubmit(&jobs[i]); err != nil {
			return wal.Commit{}, fmt.Errorf("job %d: %w", i, err)
		}
		subtasks += valid[i].task.W.E
	}
	if err := t.checkBacklog(0, subtasks); err != nil {
		return wal.Commit{}, err
	}
	commit, err := t.applySubmits(jobs, valid)
	for i := range results {
		results[i] = valid[i].resp
	}
	return commit, err
}

// batchIdemCheck resolves a batch against the idempotency memory. done
// means every job was a seen keyed submit, and results holds the original
// answers; an error means the batch mixes seen and unseen jobs (or
// repeats a key within itself) and cannot be applied atomically.
func (t *Tenant) batchIdemCheck(jobs []wal.Job, results []SubmitJobResponse) (done bool, err error) {
	seen, keyed := 0, 0
	var inBatch map[string]struct{} // made at the first key: most batches carry none
	for i, j := range jobs {
		if j.Key == "" {
			continue
		}
		keyed++
		if t.idem.find(j.Key) >= 0 {
			seen++
		}
		if _, dup := inBatch[j.Key]; dup {
			return false, fmt.Errorf("job %d: duplicate idempotency key %q within the batch", i, j.Key)
		}
		if i == len(jobs)-1 {
			break // no later job can repeat it, so a lone job needs no map
		}
		if inBatch == nil {
			inBatch = make(map[string]struct{}, len(jobs)-i)
		}
		inBatch[j.Key] = struct{}{}
	}
	if seen == 0 {
		return false, nil
	}
	if seen < len(jobs) || keyed < len(jobs) {
		return false, fmt.Errorf("server: batch replays %d of %d idempotency keys; a batch retry must repeat the original batch exactly", seen, len(jobs))
	}
	for i := range results {
		results[i], _ = t.idem.lookup(jobs[i].Key)
	}
	return true, nil
}

func (t *Tenant) applyAdvance(until, by string) (AdvanceResponse, wal.Commit, error) {
	target, err := t.advanceTarget(until, by)
	if err != nil {
		return AdvanceResponse{}, wal.Commit{}, err
	}
	// Journal the resolved absolute target: `by` is relative to a virtual
	// time only the live server knows.
	return t.applyRun(wal.Record{Op: wal.OpAdvance, Tenant: t.id, At: target.String()}, &target, func() error {
		return t.ex.Run(target, nil, nil)
	})
}

// advanceTarget resolves an advance's until or by to the absolute target,
// within the service's horizon and not before now.
func (t *Tenant) advanceTarget(until, by string) (target rat.Rat, err error) {
	switch {
	case until != "" && by != "":
		return target, fmt.Errorf("server: advance takes until or by, not both")
	case until != "":
		if target, err = rat.Parse(until); err != nil {
			return target, err
		}
		if err := checkTime("advance target", target); err != nil {
			return target, err
		}
	case by != "":
		d, err := rat.Parse(by)
		if err != nil {
			return target, err
		}
		if d.Sign() < 0 {
			return target, fmt.Errorf("server: advance by negative %s", by)
		}
		// Bound the step before adding it to now: the addition itself is
		// exact arithmetic and must stay in range.
		if err := checkTime("advance step", d); err != nil {
			return target, err
		}
		target = t.ex.Now().Add(d)
		if err := checkTime("advance target", target); err != nil {
			return target, err
		}
	default:
		return target, fmt.Errorf("server: advance needs until or by")
	}
	if target.Less(t.ex.Now()) {
		return target, fmt.Errorf("server: cannot advance to %s, already at %s", target, t.ex.Now())
	}
	return target, nil
}

func (t *Tenant) applyDrain() (AdvanceResponse, wal.Commit, error) {
	return t.applyRun(wal.Record{Op: wal.OpDrain, Tenant: t.id}, nil, func() error {
		_, err := t.ex.Drain(nil)
		return err
	})
}

// applyRun journals rec and runs the executive forward — to a target
// (advance) or until idle (drain) — reporting where virtual time ended up
// and how many decisions that produced; at is the advance's target.
func (t *Tenant) applyRun(rec wal.Record, at *rat.Rat, run func() error) (AdvanceResponse, wal.Commit, error) {
	before := t.log.len()
	commit, err := t.apply("", at, rec, func() error {
		err := run()
		// The command's one dispatch event: decisions made before a failure
		// count too.
		if n := t.log.len() - before; n > 0 {
			t.obs.tr.Dispatch(before, n, t.worst)
		}
		return err
	})
	if err != nil {
		return AdvanceResponse{}, wal.Commit{}, err
	}
	return AdvanceResponse{
		Now:        t.ex.Now().String(),
		Dispatched: t.log.len() - before,
		Pending:    t.ex.Pending(),
	}, commit, nil
}

// --- snapshot readers (any goroutine, never block the loop) ---

// Info snapshots the tenant for GET /v1/tenants/{id} and /metrics.
func (t *Tenant) Info() TenantInfo {
	sn := t.snap.Load()
	return TenantInfo{
		ID:           t.id,
		M:            sn.m,
		PendingM:     sn.pendingM,
		Policy:       t.policy,
		Now:          sn.now.String(),
		Utilization:  sn.util.String(),
		Tasks:        sn.tasks,
		Pending:      sn.pending,
		Dispatches:   sn.log.len(),
		MaxTardiness: sn.maxTar.String(),
		Rejections:   sn.reject,
	}
}

// eventAt decodes the dispatch event with sequence number seq, if the log
// still holds it in memory. Recovery uses it to verify regenerated
// decisions against the per-decision dispatch records of a journal written
// before the digest, which only ever name decisions made since the last
// snapshot — never sealed ones. (A follower can have sealed one since;
// verifyDispatch does not ask for those.)
func (t *Tenant) eventAt(seq int64) (DispatchEvent, bool) {
	var buf []byte
	frame, n := t.snap.Load().log.frames(&buf, seq, 1)
	var ev DispatchEvent
	return ev, n == 1 && json.Unmarshal(frame, &ev) == nil
}

// Subscribe returns a channel that is closed when the dispatch log next
// grows, once the snapshot that shows the growth is published: take it,
// read the log, and only if the read found nothing new wait on it — a
// growth in between closes a channel already held. No channel exists while
// nobody has asked for one, and all who ask before the next growth share
// one.
func (t *Tenant) Subscribe() <-chan struct{} {
	for {
		if ch := t.grown.Load(); ch != nil {
			return *ch
		}
		ch := make(chan struct{})
		if t.grown.CompareAndSwap(nil, &ch) {
			return ch
		}
	}
}

var errTenantGone = fmt.Errorf("server: tenant deleted")

// Service-boundary limits. The scheduling core uses exact int64 rational
// arithmetic that panics on overflow by design (internal/rat); these caps
// keep everything a client can introduce far inside the representable
// range, so arbitrary request parameters are rejected with a 4xx instead
// of tripping that panic — in particular never *after* a command has been
// journaled, which would poison replay.
const (
	// MaxM caps processors per tenant; it also bounds the per-tenant
	// freeAt allocation a single create or resize request can force. It
	// aliases the executive's resize cap so both reject the same range.
	MaxM = online.MaxM
	// MaxPeriod caps a task period. Subtask deadlines scale with
	// index·P/E, so bounding P keeps per-job arithmetic in range for any
	// realistic job count.
	MaxPeriod = int64(1) << 20
	// MaxEarliness caps early-release offsets (eq. (6) shifts scale with
	// it).
	MaxEarliness = int64(1) << 20
	// MaxBatchJobs caps jobs per batch submit: it bounds how long one
	// request may occupy the tenant loop and, with MaxRequestBody, how
	// large a record the journal is asked to frame (one it cannot is
	// refused, wal.ErrRecordTooLarge, with nothing written).
	MaxBatchJobs = 1024
	// MaxBacklog caps a tenant's undispatched subtasks: a job adds its E,
	// which the executive builds at submit, so without it one batch could
	// ask for MaxBatchJobs·MaxPeriod. It is one job of the longest period,
	// so any single job fits an idle tenant.
	MaxBacklog = MaxPeriod
	// MaxIdemKeys caps remembered idempotency keys per tenant (FIFO
	// eviction); MaxKeyLen caps one key's length so keys cannot bloat
	// journal records or snapshots.
	MaxIdemKeys = 4096
	MaxKeyLen   = 128
	// MaxNameLen caps a task name's and a tenant id's length, in bytes: a
	// name is copied into every dispatch frame, the trace ring's string
	// table, the log's task table and every per-tenant metric label, and
	// JSON may write a byte of it as six, so a frame of the longest stays
	// far inside a chunk. A request over it is refused before anything is
	// journaled; a journal or snapshot holding a longer one, which an older
	// version wrote, still replays.
	MaxNameLen = 1024
	// maxTimeDen / maxTimeValue bound virtual-time instants a client may
	// name. rat.Cmp cross-multiplies numerator × opposing denominator, so
	// a comparable time needs value·den_a·den_b ≤ 2^62; 2^28 quanta with
	// denominators ≤ 2^16 leaves headroom for sums of two bounded times.
	maxTimeDen   = int64(1) << 16
	maxTimeValue = int64(1) << 28
)

// checkTime rejects virtual-time instants outside the service's
// representable horizon. The denominator check must come first: Cmp
// cross-multiplies, so even comparing an unbounded rational against the
// bound could overflow.
func checkTime(what string, r rat.Rat) error {
	if r.Den() > maxTimeDen {
		return fmt.Errorf("server: %s %s: denominator exceeds 2^16", what, r)
	}
	if rat.FromInt(maxTimeValue).Less(r) {
		return fmt.Errorf("server: %s %s is beyond the service horizon 2^28", what, r)
	}
	return nil
}

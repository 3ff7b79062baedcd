package server

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"desyncpfair/internal/admission"
	"desyncpfair/internal/model"
	"desyncpfair/internal/obs"
	"desyncpfair/internal/online"
	"desyncpfair/internal/prio"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/sched"
	"desyncpfair/internal/wal"
)

// Tenant wraps one online.Executive behind a single-writer event loop.
// online.Executive is single-goroutine by contract; instead of a mutex,
// each tenant runs one loop goroutine (runLoop, loop.go) fed by a bounded
// MPSC submit ring. HTTP handlers validate the wire input, enqueue a
// command, and wait on its completion; the loop journals, applies, and
// publishes an immutable tenantSnap through an atomic pointer. Every read
// path — Info, /metrics, stream replay, recovery verification — loads the
// snapshot and never synchronizes with the writer, so scrapes and
// followers cost the hot path nothing.
//
// Field ownership:
//   - loop-owned (no lock; only the loop goroutine may touch them after
//     start): ex — which also holds the tenant's one Σwt ≤ M ledger: M,
//     the queued shrink target and Σwt are asked of it and kept nowhere
//     else (readers use the snapshot) — tasks, log (its manifest included:
//     compaction extends it through a control command, sealHistory),
//     maxTar, reject, digest, jobs, group, cur*.
//   - immutable after construction: id, policy, ring, ctl, closed.
//   - atomics: snap (published state), hooks (journal callbacks), obsP
//     (tracer + histograms), closing (delete gate).
//   - locks: ringMu is the enqueue/close barrier (see loop.go); subMu
//     guards the stream-follower set.
type Tenant struct {
	id     string
	policy string

	ring    chan *command
	ctl     chan *command
	ringMu  sync.RWMutex
	closing atomic.Bool
	closed  chan struct{}

	snap  atomic.Pointer[tenantSnap]
	hooks atomic.Pointer[journalHooks]
	obsP  atomic.Pointer[tenantObs]

	// Loop-owned state.
	ex    *online.Executive
	tasks map[string]*model.Task // the active tasks, by name
	// log is the dispatch history, kept once, as the wire bytes every
	// reader is served (dispatchlog.go).
	log    dispatchLog
	maxTar rat.Rat
	reject int64
	// digest is the dispatch digest of the last command that made decisions
	// (journaled tenants only; settle computes it).
	digest dispatchDigest
	// jobs and group are reusable buffers: the validated jobs of the submit
	// group being applied, and what its journal record says of them.
	jobs  []submitJob
	group []wal.Job
	// curCmd/curStart/curOp tie dispatch trace events to the command
	// whose apply produced them.
	curCmd   int64
	curStart time.Time
	curOp    string
	// idem/idemQ remember responses of keyed job submits (bounded FIFO,
	// MaxIdemKeys): a resubmit with a seen key returns the original
	// response without applying or journaling again. Rebuilt identically
	// on replay — records carry the key — so retry-after-crash and
	// retry-after-promotion both dedupe.
	idem  map[string]SubmitJobResponse
	idemQ []string

	subMu sync.Mutex
	subs  map[*subscriber]struct{}
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

// tenantObs bundles the tenant's observability sinks behind one atomic
// pointer: the trace ring, the per-tenant histograms, and the aggregate
// sinks. Allocated lazily — a server-attached tenant never pays for the
// standalone defaults (previously every tenant allocated its trace ring
// twice: once in NewTenant, once in attachObs).
type tenantObs struct {
	tr        *obs.Tracer    // command-lifecycle trace ring
	submitAck *obs.Histogram // submit→ack latency, this tenant
	lag       *obs.Histogram // dispatch tardiness in quanta, this tenant
	sobs      *serverObs     // aggregate sinks (nil on a bare tenant)
}

// subscriber is one dispatch-stream follower. ping has capacity 1; the
// loop's post-command non-blocking send coalesces any number of new
// events into one wakeup, and the follower re-reads the log to catch up.
type subscriber struct {
	ping chan struct{}
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

// NewTenant creates a tenant with id on m processors under the named
// policy ("" = PD²) with the default submit-ring capacity.
func NewTenant(id string, m int, policyName string) (*Tenant, error) {
	return newTenant(id, m, policyName, 0)
}

func newTenant(id string, m int, policyName string, ringSize int) (*Tenant, error) {
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
	t := newTenantCore(id, pol.Name(), online.New(m, pol), ringSize)
	t.start()
	return t, nil
}

// newTenantCore builds the shared tenant shell. The loop is NOT started:
// callers finish wiring loop-owned state (restoreTenant indexes the
// active tasks, installs the log) and then call start. Both the
// live-create and the recovery-restore path come through here. A tenant
// may live forever, so its executive keeps nothing behind its cursors: the
// dispatch log is the only record of a past decision.
func newTenantCore(id, policy string, ex *online.Executive, ringSize int) *Tenant {
	if ringSize <= 0 {
		ringSize = defaultSubmitRing
	}
	ex.ForgetHistory()
	t := &Tenant{
		id:     id,
		policy: policy,
		ring:   make(chan *command, ringSize),
		ctl:    make(chan *command),
		closed: make(chan struct{}),
		ex:     ex,
		tasks:  map[string]*model.Task{},
		idem:   map[string]SubmitJobResponse{},
		maxTar: rat.Zero,
		subs:   map[*subscriber]struct{}{},
	}
	t.ex.SetOnDispatch(t.record)
	return t
}

// start publishes the initial snapshot and launches the event loop. After
// start, loop-owned fields belong to the loop goroutine exclusively.
func (t *Tenant) start() {
	t.publish()
	go t.runLoop()
}

// publish stores the post-command state image and reports whether the
// dispatch log grew since the last published snapshot (the signal to wake
// stream followers). Loop goroutine only (callable before start, while
// the loop cannot be running).
func (t *Tenant) publish() bool {
	prev := t.snap.Load()
	t.snap.Store(&tenantSnap{
		now:      t.ex.Now(),
		util:     t.ex.ActiveUtilization(),
		m:        t.ex.M(),
		pendingM: t.ex.PendingM(),
		tasks:    len(t.tasks),
		pending:  t.ex.Pending(),
		log:      t.log,
		maxTar:   t.maxTar,
		reject:   t.reject,
		digest:   t.digest,
	})
	return prev == nil || t.log.len() > prev.log.len()
}

// pingSubs wakes every stream follower (coalesced, non-blocking).
func (t *Tenant) pingSubs() {
	t.subMu.Lock()
	for sub := range t.subs {
		select {
		case sub.ping <- struct{}{}:
		default: // a wakeup is already queued; the follower will catch up
		}
	}
	t.subMu.Unlock()
}

// obs returns the tenant's observability sinks, installing standalone
// defaults on first use if the server never attached its own.
func (t *Tenant) obs() *tenantObs {
	if o := t.obsP.Load(); o != nil {
		return o
	}
	def := &tenantObs{
		tr:        obs.NewTracer(obs.NewRing(defaultTraceCap), obs.Real{}),
		submitAck: obs.NewHistogram(obs.DefaultLatencyBuckets),
		lag:       obs.NewHistogram(obs.QuantaBuckets),
	}
	if t.obsP.CompareAndSwap(nil, def) {
		return def
	}
	return t.obsP.Load()
}

// attachObs rewires the tenant onto the server's observability: its
// injected clock, its trace-ring capacity, and the aggregate histograms
// that /metrics sums across tenants. addTenant calls it before the tenant
// is visible to requests, so the swap races with nothing — and it is the
// one chokepoint covering both live-created and recovery-restored
// tenants.
func (t *Tenant) attachObs(o *serverObs) {
	t.obsP.Store(&tenantObs{
		tr:        obs.NewTracer(obs.NewRing(o.traceCap), o.clock),
		submitAck: obs.NewHistogram(obs.DefaultLatencyBuckets),
		lag:       obs.NewHistogram(obs.QuantaBuckets),
		sobs:      o,
	})
}

// traceRing returns the tenant's trace ring for the streaming handler.
func (t *Tenant) traceRing() *obs.Ring {
	return t.obs().tr.Ring()
}

// obsSnapshot snapshots the tenant for /metrics.
func (t *Tenant) obsSnapshot() tenantObsSnap {
	o := t.obs()
	return tenantObsSnap{
		id:        t.id,
		state:     t.snap.Load(),
		submitAck: o.submitAck.Snapshot(),
		lag:       o.lag.Snapshot(),
		traceLen:  o.tr.Ring().Next(),
	}
}

// observeSubmitAck records one submit→ack latency into the tenant and
// aggregate histograms. A histogram is safe for concurrent use, so the
// HTTP handler calls this directly.
func (t *Tenant) observeSubmitAck(d time.Duration) {
	o := t.obs()
	s := d.Seconds()
	o.submitAck.Observe(s)
	if o.sobs != nil {
		o.sobs.submitAck.Observe(s)
	}
}

// traceBegin opens a traced command and parks its context for record() to
// stamp onto the dispatch events it produces. Loop goroutine only.
func (t *Tenant) traceBegin(op, task, at string) {
	o := t.obs()
	t.curCmd, t.curStart = o.tr.Begin(t.id, op, task, at)
	t.curOp = op
}

// traceStage marks the current command's next completed lifecycle stage.
func (t *Tenant) traceStage(stage string) {
	t.obs().tr.Stage(t.id, t.curCmd, t.curStart, t.curOp, stage, "")
}

// traceFail marks the current command failed at stage; no further stages
// follow for it.
func (t *Tenant) traceFail(stage string, err error) {
	t.obs().tr.Stage(t.id, t.curCmd, t.curStart, t.curOp, stage, err.Error())
}

// SetJournal installs the durability hooks: append enqueues one record —
// a command, or the digest of the decisions one made — and fail
// permanently wedges the journal after a post-journal apply failure.
// append returns a wal.Commit the enqueuing handler waits on after the
// command completes (group commit: the first waiter fsyncs for everyone
// queued behind it); a submit group's record lends it the tenant's reusable
// Jobs buffer, good until it returns. batch is never called — a group is
// one record, because a frame group could tear — and stays in the signature
// for bench/, which is not edited with the code it measures (ROADMAP item
// 10c). Like SetOnDispatch it must be called before the tenant serves
// traffic.
func (t *Tenant) SetJournal(append func(wal.Record) (wal.Commit, error), batch func([]wal.Record) (wal.Commit, error), fail func(error)) {
	t.hooks.Store(&journalHooks{append: append, fail: fail})
}

// record is the executive's OnDispatch hook. It runs on the loop
// goroutine (dispatches only happen inside a command's apply), so plain
// field access is safe. The decision is encoded once, into the log's tail;
// what the journal keeps of it (one digest per command) and the follower
// wakeup both wait for settle, after the apply.
func (t *Tenant) record(d online.Dispatch) {
	deadline := d.Sub.Deadline()
	tard := sched.Tardiness(d.Finish, deadline)
	if t.maxTar.Less(tard) {
		t.maxTar = tard
	}
	seq, task := t.log.len(), d.Sub.Task.Name
	t.log.append(task, d.Sub.Index, d.Proc, d.Start, d.Finish, deadline, tard)
	o := t.obs()
	lagf := tard.Float64()
	o.lag.Observe(lagf)
	if o.sobs != nil {
		o.sobs.dispatchLag.Observe(lagf)
	}
	o.tr.Dispatch(t.id, t.curCmd, t.curStart, t.curOp, task, seq, tard.String())
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
	res := t.exec(&command{kind: cmdRegister, name: name, w: w})
	return res.dec, res.commit, res.err
}

// UnregisterTask removes a task and releases its capacity. It fails while
// the task still has undispatched subtasks (advance or drain first).
func (t *Tenant) UnregisterTask(name string) (wal.Commit, error) {
	res := t.exec(&command{kind: cmdUnregister, name: name})
	return res.commit, res.err
}

// SubmitJob releases one job of the named task. An empty `at` submits at
// the tenant's current virtual time (the race-free choice for concurrent
// clients); otherwise `at` is parsed as a rat and must not precede it.
func (t *Tenant) SubmitJob(taskName, at string, earliness int64) (SubmitJobResponse, wal.Commit, error) {
	return t.SubmitJobReq(SubmitJobRequest{Task: taskName, At: at, Earliness: earliness})
}

// SubmitJobReq is SubmitJob taking the full wire request, including the
// optional idempotency key that makes the submit safe to retry.
func (t *Tenant) SubmitJobReq(req SubmitJobRequest) (SubmitJobResponse, wal.Commit, error) {
	res := t.exec(&command{kind: cmdSubmit, submit: req})
	return res.submit, res.commit, res.err
}

// SubmitJobs releases a batch of jobs atomically: every job is validated
// against the tenant's current state first (all-or-nothing — one bad job
// rejects the whole batch with no state change), then the batch is
// journaled as one record and applied. The caller waits on the one
// returned commit, so N jobs cost one frame and at most one fsync.
func (t *Tenant) SubmitJobs(reqs []SubmitJobRequest) (SubmitJobsResponse, wal.Commit, error) {
	res := t.exec(&command{kind: cmdSubmitBatch, batch: reqs})
	return res.subs, res.commit, res.err
}

// Advance moves virtual time forward. Exactly one of until/by must be
// non-empty; `by` is relative to the tenant's current virtual time.
func (t *Tenant) Advance(until, by string) (AdvanceResponse, wal.Commit, error) {
	res := t.exec(&command{kind: cmdAdvance, until: until, by: by})
	return res.adv, res.commit, res.err
}

// Drain dispatches everything released so far and returns the final
// virtual time.
func (t *Tenant) Drain() (AdvanceResponse, wal.Commit, error) {
	res := t.exec(&command{kind: cmdDrain})
	return res.adv, res.commit, res.err
}

// Resize changes the tenant's processor count. A grow takes effect at
// the next quantum boundary; a shrink below current utilization is
// rejected (Outcome "rejected", nothing journaled), or with drain queued
// as a pending target that applies once unregisters bring Σwt within it.
func (t *Tenant) Resize(m int, drain bool) (ResizeResponse, wal.Commit, error) {
	res := t.exec(&command{kind: cmdResize, resizeM: m, drain: drain})
	return res.resize, res.commit, res.err
}

// --- the write path (loop goroutine only) ---
//
// Every command runs the same three steps: validate completely against
// current state (a rejection leaves nothing behind and is not journaled),
// journal, apply. Validation is what makes journal-before-apply safe: a
// journaled command must apply — on this server now and on every replay
// of the journal later.

// journal opens the traced command and, on a durable tenant, journals its
// one record before anything is applied. A refusal fails the command with
// nothing applied.
func (t *Tenant) journal(task, at string, rec wal.Record) (wal.Commit, error) {
	h := t.hooks.Load()
	t.traceBegin(rec.Op, task, at)
	if h == nil {
		return wal.Commit{}, nil
	}
	commit, err := h.append(rec)
	if err != nil {
		t.traceFail(obs.StageWALAppend, err)
		return wal.Commit{}, err
	}
	t.traceStage(obs.StageWALAppend)
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
	t.traceFail(obs.StageApply, err)
	return err
}

func (t *Tenant) applyRegister(name string, w model.Weight) cmdResult {
	if w.P > MaxPeriod {
		return cmdResult{err: fmt.Errorf("server: task %q period %d exceeds %d", name, w.P, MaxPeriod)}
	}
	if err := w.Validate(); err != nil {
		return cmdResult{err: err}
	}
	if !t.utilOverflowSafe(w) {
		return cmdResult{err: fmt.Errorf("server: task %q weight %s: utilization sum leaves exact-arithmetic range", name, w)}
	}
	d, err := t.ex.PlanRegister(name, w)
	if err != nil {
		return cmdResult{err: err}
	}
	if !d.Admitted {
		// Rejections are not journaled: they leave no state behind, and
		// the rejection metric is restored from the last snapshot.
		t.reject++
		return cmdResult{dec: d}
	}
	commit, err := t.journal(name, "", wal.Record{Op: wal.OpTaskRegister, Tenant: t.id, Name: name, E: w.E, P: w.P})
	if err != nil {
		return cmdResult{err: err}
	}
	task, err := t.ex.Register(name, w)
	if err != nil {
		return cmdResult{err: t.wedge(err)}
	}
	t.tasks[name] = task
	t.traceStage(obs.StageApply)
	return cmdResult{dec: d, commit: commit}
}

func (t *Tenant) applyUnregister(name string) cmdResult {
	task, ok := t.tasks[name]
	if !ok {
		return cmdResult{err: fmt.Errorf("server: tenant %q has no task %q", t.id, name)}
	}
	// The one way Unregister can fail (t.tasks only holds active tasks).
	if n := t.ex.Undispatched(task); n > 0 {
		return cmdResult{err: fmt.Errorf("server: task %q has %d undispatched subtasks; drain before unregistering", name, n)}
	}
	commit, err := t.journal(name, "", wal.Record{Op: wal.OpTaskUnregister, Tenant: t.id, Name: name})
	if err != nil {
		return cmdResult{err: err}
	}
	// The release applies a queued drain-mode shrink once Σwt fits it.
	if err := t.ex.Unregister(task); err != nil {
		return cmdResult{err: t.wedge(err)}
	}
	delete(t.tasks, name)
	t.traceStage(obs.StageApply)
	return cmdResult{commit: commit}
}

// applyResize changes the tenant's processor count. A rejection (a
// non-drain shrink below Σwt) is counted and not journaled, exactly like a
// rejected registration; applied and queued resizes journal an OpResize
// record so recovery replays the capacity history.
func (t *Tenant) applyResize(m int, drain bool) cmdResult {
	if m < 1 {
		return cmdResult{err: fmt.Errorf("server: tenant %q resize needs m ≥ 1, got %d", t.id, m)}
	}
	if m > MaxM {
		return cmdResult{err: fmt.Errorf("server: tenant %q resize wants m = %d > %d processors", t.id, m, MaxM)}
	}
	plan, err := t.ex.PlanResize(m, drain)
	if err != nil {
		return cmdResult{err: err}
	}
	if plan.Outcome == admission.ResizeRejected {
		t.reject++
		return cmdResult{resize: t.resizeResponse(plan)}
	}
	mode := ""
	if plan.Outcome == admission.ResizeQueued {
		mode = "drain"
	}
	commit, err := t.journal("", strconv.Itoa(m), wal.Record{Op: wal.OpResize, Tenant: t.id, M: m, Mode: mode})
	if err != nil {
		return cmdResult{err: err}
	}
	d, err := t.ex.ResizeDrain(m, drain)
	if err != nil {
		return cmdResult{err: t.wedge(err)}
	}
	t.traceStage(obs.StageApply)
	return cmdResult{resize: t.resizeResponse(d), commit: commit}
}

// resizeResponse shapes a resize decision for the wire. Loop goroutine
// only (reads the ledger).
func (t *Tenant) resizeResponse(d admission.ResizeDecision) ResizeResponse {
	return ResizeResponse{
		Outcome:     d.Outcome.String(),
		M:           d.M,
		PendingM:    d.PendingM,
		Utilization: t.ex.ActiveUtilization().String(),
		Reason:      d.Reason,
	}
}

// submitJob is one validated job submit on its way through applySubmits,
// which fills in resp. cmd is the single-submit command it answers (nil
// for a job of a batch).
type submitJob struct {
	req  SubmitJobRequest
	task *model.Task
	when rat.Rat
	resp SubmitJobResponse
	cmd  *command
}

// applySubmits is the one submit applier: it journals validated jobs as
// one record — the flat job-submit for a lone job, one group record for
// more, so a crash or a cut replication stream leaves all of a group or
// none of it — releases each into the executive, and remembers each keyed
// response. Both front ends — the atomic batch and the run of coalesced
// single submits, which differ in how they validate and dedupe — end
// here, as does the replay of either, and a lone submit is a run of one.
// Jobs are validated independently against the state at entry; submits
// only add pending work and never move virtual time, so independent
// validity implies sequential validity.
func (t *Tenant) applySubmits(jobs []submitJob) (wal.Commit, error) {
	if len(jobs) == 0 {
		return wal.Commit{}, nil
	}
	// Each job's resolved arrival is rendered once, into its response, and
	// read from there by the journal record and its trace span — and once
	// per group for the common empty `at`, which resolves every such job
	// to the same now. The record carries the *resolved* time: "now" is
	// something only the live server knows, and replay must not re-resolve
	// it.
	group, now := t.group[:0], ""
	for i := range jobs {
		j := &jobs[i]
		if j.req.At != "" {
			j.resp.At = j.when.String()
		} else {
			if now == "" {
				now = j.when.String()
			}
			j.resp.At = now
		}
		group = append(group, wal.Job{Name: j.req.Task, At: j.resp.At, Earliness: j.req.Earliness, Key: j.req.Key})
	}
	t.group = group[:0]
	rec := wal.Record{Op: wal.OpJobSubmit, Tenant: t.id}
	if len(group) == 1 {
		rec.Name, rec.At, rec.Earliness, rec.Key = group[0].Name, group[0].At, group[0].Earliness, group[0].Key
	} else {
		rec.Jobs = group
	}
	commit, err := t.journal(jobs[0].req.Task, jobs[0].resp.At, rec)
	if err != nil {
		return wal.Commit{}, err
	}
	journaled := t.hooks.Load() != nil
	for i := range jobs {
		j := &jobs[i]
		if i > 0 {
			// The group's one record covered this job too.
			t.traceBegin(wal.OpJobSubmit, j.req.Task, j.resp.At)
			if journaled {
				t.traceStage(obs.StageWALAppend)
			}
		}
		if err := t.ex.SubmitJobEarly(j.task, j.when, j.req.Earliness); err != nil {
			return wal.Commit{}, fmt.Errorf("job %d: %w", i, t.wedge(err))
		}
		t.traceStage(obs.StageApply)
		j.resp.Pending = t.ex.Pending()
		t.idemRemember(j.req.Key, j.resp)
	}
	return commit, nil
}

// idemSeen reports whether a keyed submit was already applied and returns
// its original response. Loop goroutine only.
func (t *Tenant) idemSeen(key string) (SubmitJobResponse, bool) {
	if key == "" {
		return SubmitJobResponse{}, false
	}
	resp, ok := t.idem[key]
	return resp, ok
}

// idemRemember records a keyed submit's response, evicting the oldest key
// once MaxIdemKeys are held. Eviction order is insertion order, which is
// deterministic under replay because replay re-applies the same records
// in the same order. Loop goroutine only.
func (t *Tenant) idemRemember(key string, resp SubmitJobResponse) {
	if key == "" {
		return
	}
	if _, ok := t.idem[key]; ok {
		return
	}
	if len(t.idemQ) >= MaxIdemKeys {
		delete(t.idem, t.idemQ[0])
		t.idemQ = t.idemQ[1:]
	}
	t.idem[key] = resp
	t.idemQ = append(t.idemQ, key)
}

// validateSubmit runs every check the executive would enforce on a job
// submit and resolves an empty `at` to the tenant's current virtual time.
// A nil error guarantees applySubmits cannot fail on the returned job.
func (t *Tenant) validateSubmit(req SubmitJobRequest) (submitJob, error) {
	task, ok := t.tasks[req.Task]
	if !ok {
		return submitJob{}, fmt.Errorf("server: tenant %q has no task %q", t.id, req.Task)
	}
	when := t.ex.Now()
	if req.At != "" {
		var err error
		when, err = rat.Parse(req.At)
		if err != nil {
			return submitJob{}, err
		}
		if err := checkTime("arrival", when); err != nil {
			return submitJob{}, err
		}
	}
	if when.Less(t.ex.Now()) {
		return submitJob{}, fmt.Errorf("server: job of %q submitted at %s, before virtual time %s", req.Task, when, t.ex.Now())
	}
	if req.Earliness < 0 {
		return submitJob{}, fmt.Errorf("server: negative earliness %d", req.Earliness)
	}
	if req.Earliness > MaxEarliness {
		return submitJob{}, fmt.Errorf("server: earliness %d exceeds %d", req.Earliness, MaxEarliness)
	}
	if len(req.Key) > MaxKeyLen {
		return submitJob{}, fmt.Errorf("server: idempotency key length %d exceeds %d", len(req.Key), MaxKeyLen)
	}
	return submitJob{req: req, task: task, when: when}, nil
}

// applySubmitBatch is the atomic front end of applySubmits: one bad job
// rejects the whole batch with no state change.
func (t *Tenant) applySubmitBatch(reqs []SubmitJobRequest) cmdResult {
	// Idempotency across a batch is all-or-nothing, mirroring the batch's
	// own atomicity: a retry where every keyed job was already applied
	// replays the cached responses; a partial overlap is rejected outright.
	// A faithful retry never meets one: the batch is one journal record, so
	// a crash, a recovery or a promoted follower holds all of its keys or
	// none — unless the journal was written before that (a group of
	// per-job frames, which a crash could cut), or MaxIdemKeys evicted some.
	if resp, done, err := t.batchIdemCheck(reqs); err != nil || done {
		return cmdResult{subs: resp, err: err}
	}
	jobs := t.jobs[:0]
	for i, req := range reqs {
		job, err := t.validateSubmit(req)
		if err != nil {
			return cmdResult{err: fmt.Errorf("job %d: %w", i, err)}
		}
		jobs = append(jobs, job)
	}
	t.jobs = jobs[:0]
	commit, err := t.applySubmits(jobs)
	if err != nil {
		return cmdResult{err: err}
	}
	resp := SubmitJobsResponse{Accepted: len(jobs), Results: make([]SubmitJobResponse, len(jobs))}
	for i := range jobs {
		resp.Results[i] = jobs[i].resp
	}
	return cmdResult{subs: resp, commit: commit}
}

// batchIdemCheck resolves a batch against the idempotency memory. done
// means every job was a seen keyed submit and resp replays the original
// results; an error means the batch mixes seen and unseen jobs (or
// repeats a key within itself) and cannot be applied atomically.
func (t *Tenant) batchIdemCheck(reqs []SubmitJobRequest) (SubmitJobsResponse, bool, error) {
	seen, keyed := 0, 0
	inBatch := map[string]struct{}{}
	for i, req := range reqs {
		if req.Key == "" {
			continue
		}
		keyed++
		if _, dup := inBatch[req.Key]; dup {
			return SubmitJobsResponse{}, false, fmt.Errorf("job %d: duplicate idempotency key %q within the batch", i, req.Key)
		}
		inBatch[req.Key] = struct{}{}
		if _, ok := t.idem[req.Key]; ok {
			seen++
		}
	}
	if seen == 0 {
		return SubmitJobsResponse{}, false, nil
	}
	if seen < len(reqs) || keyed < len(reqs) {
		return SubmitJobsResponse{}, false, fmt.Errorf("server: batch replays %d of %d idempotency keys; a batch retry must repeat the original batch exactly", seen, len(reqs))
	}
	resp := SubmitJobsResponse{Accepted: len(reqs), Results: make([]SubmitJobResponse, len(reqs))}
	for i, req := range reqs {
		resp.Results[i] = t.idem[req.Key]
	}
	return resp, true, nil
}

func (t *Tenant) applyAdvance(until, by string) cmdResult {
	var target rat.Rat
	switch {
	case until != "" && by != "":
		return cmdResult{err: fmt.Errorf("server: advance takes until or by, not both")}
	case until != "":
		var err error
		if target, err = rat.Parse(until); err != nil {
			return cmdResult{err: err}
		}
		if err := checkTime("advance target", target); err != nil {
			return cmdResult{err: err}
		}
	case by != "":
		d, err := rat.Parse(by)
		if err != nil {
			return cmdResult{err: err}
		}
		if d.Sign() < 0 {
			return cmdResult{err: fmt.Errorf("server: advance by negative %s", by)}
		}
		// Bound the step before adding it to now: the addition itself is
		// exact arithmetic and must stay in range.
		if err := checkTime("advance step", d); err != nil {
			return cmdResult{err: err}
		}
		target = t.ex.Now().Add(d)
		if err := checkTime("advance target", target); err != nil {
			return cmdResult{err: err}
		}
	default:
		return cmdResult{err: fmt.Errorf("server: advance needs until or by")}
	}
	if target.Less(t.ex.Now()) {
		return cmdResult{err: fmt.Errorf("server: cannot advance to %s, already at %s", target, t.ex.Now())}
	}
	// Journal the resolved absolute target: `by` is relative to a virtual
	// time only the live server knows.
	return t.applyRun(wal.Record{Op: wal.OpAdvance, Tenant: t.id, At: target.String()}, func() error {
		return t.ex.Run(target, nil, nil)
	})
}

func (t *Tenant) applyDrain() cmdResult {
	return t.applyRun(wal.Record{Op: wal.OpDrain, Tenant: t.id}, func() error {
		_, err := t.ex.Drain(nil)
		return err
	})
}

// applyRun journals rec and runs the executive forward — to a target
// (advance) or until idle (drain) — reporting where virtual time ended up
// and how many decisions that produced.
func (t *Tenant) applyRun(rec wal.Record, run func() error) cmdResult {
	commit, err := t.journal("", rec.At, rec)
	if err != nil {
		return cmdResult{err: err}
	}
	before := t.log.len()
	if err := run(); err != nil {
		return cmdResult{err: t.wedge(err)}
	}
	t.traceStage(obs.StageApply)
	return cmdResult{
		adv: AdvanceResponse{
			Now:        t.ex.Now().String(),
			Dispatched: t.log.len() - before,
			Pending:    t.ex.Pending(),
		},
		commit: commit,
	}
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

// LogLen returns the published dispatch-log length — the seq the next
// decision will get. Stream handlers use it to measure follower lag.
func (t *Tenant) LogLen() int64 {
	return t.snap.Load().log.len()
}

// eventAt decodes the dispatch event with sequence number seq, if the log
// still holds it in memory. Recovery uses it to verify regenerated
// decisions against the per-decision dispatch records of a journal written
// before the digest, which only ever name decisions made since the last
// snapshot — never sealed ones. (A follower can have sealed one since;
// verifyDispatch does not ask for those.)
func (t *Tenant) eventAt(seq int64) (DispatchEvent, bool) {
	frame, n := t.snap.Load().log.frames(seq, 1)
	var ev DispatchEvent
	return ev, n == 1 && json.Unmarshal(frame, &ev) == nil
}

// Subscribe registers a stream follower; its ping channel receives a
// (coalesced) wakeup after new dispatches land in the log.
func (t *Tenant) Subscribe() *subscriber {
	sub := &subscriber{ping: make(chan struct{}, 1)}
	t.subMu.Lock()
	t.subs[sub] = struct{}{}
	t.subMu.Unlock()
	return sub
}

// Unsubscribe removes a follower registered with Subscribe.
func (t *Tenant) Unsubscribe(sub *subscriber) {
	t.subMu.Lock()
	delete(t.subs, sub)
	t.subMu.Unlock()
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
	// aliases the admission-layer cap so both reject the same range.
	MaxM = admission.MaxM
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
	// MaxIdemKeys caps remembered idempotency keys per tenant (FIFO
	// eviction); MaxKeyLen caps one key's length so keys cannot bloat
	// journal records or snapshots.
	MaxIdemKeys = 4096
	MaxKeyLen   = 128
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

// utilOverflowSafe reports whether adding w to the running utilization
// sum stays inside exact int64 arithmetic. Admitted periods are bounded,
// but the least common denominator across many coprime periods can still
// outgrow int64; probing here (before journaling, before mutating) turns
// the rat package's deliberate overflow panic into a clean rejection.
func (t *Tenant) utilOverflowSafe(w model.Weight) (ok bool) {
	defer func() { ok = recover() == nil }()
	t.ex.ActiveUtilization().Add(w.Rat())
	return true
}

package server

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"

	"desyncpfair/internal/rat"
	"desyncpfair/internal/wal"
)

// ErrRingFull reports that a tenant's command queue is at capacity: its
// drainer is applying commands as fast as it can and the bounded queue
// refuses to hold more. It maps to HTTP 429 — explicit backpressure,
// distinct from a failure. Clients retry; load generators count it
// separately from errors.
var ErrRingFull = errors.New("server: tenant submit ring full")

// errBacklogFull refuses a submit that would take the tenant's
// undispatched subtasks past MaxBacklog. Like a full queue it is 429: an
// advance frees room, so a retry can fit. errOverBacklog refuses a request
// whose jobs alone pass it: 413, since no retry ever can.
var (
	errBacklogFull = errors.New("server: tenant backlog full")
	errOverBacklog = errors.New("server: request exceeds the tenant backlog cap")
)

// maxRunBytes bounds the task names and keys one group of coalesced single
// submits may hold. The journal frames a record of up to 1 MiB and JSON
// writes a byte as at most six, so a group within it always fits.
const maxRunBytes = 128 << 10

// defaultSubmitRing is how many commands a tenant's queue holds before a
// request that finds it full answers 429 (ErrRingFull).
const defaultSubmitRing = 256

// drainBatch is the most commands a drainer takes from the queue at once.
const drainBatch = 64

// command is one queued request for a tenant: the single submit of job (fn
// nil, the one kind a drainer coalesces into runs), or fn, the closure the
// drainer runs for any other request — it journals, applies and returns
// the record's commit, its typed answer captured by the caller. A stop
// ends the tenant once its fn, if any, has succeeded: Close, or a delete
// whose fn journals it. The caller queues the command and waits on done,
// which has capacity 1 and carries one value at a time: the command's
// result, or, before it, handOff: the drainer role, passed to the caller.
type command struct {
	job  wal.Job
	fn   func() (wal.Commit, error)
	stop bool

	done chan cmdResult
}

// single reports whether c is a single job submit.
func (c *command) single() bool { return c.fn == nil && !c.stop }

// cmdResult carries a command's outcome back to the queuing caller; a
// single submit's answer is submit, any other command's the caller's own.
type cmdResult struct {
	submit SubmitJobResponse
	commit wal.Commit
	err    error
}

// handOff is what a waiter receives on done instead of its result when
// the drainer role passes to it: its command heads the queue.
var handOff = cmdResult{err: errors.New("server: drainer role handed off")}

// journalHooks bundles the durability callbacks, and the journal a seal
// writes its history file beside (nil for hooks SetJournal installs: such
// a tenant keeps its whole log); the tenant holds them behind an atomic
// pointer so installing them needs no lock against a drainer.
type journalHooks struct {
	append func(wal.Record) (wal.Commit, error)
	fail   func(error)
	hist   *wal.Log
}

// exec runs a request on the tenant's queue. A request never waits for
// room: a full queue answers ErrRingFull (HTTP 429) at once.
func (t *Tenant) exec(c *command) cmdResult { return t.send(c, false) }

// ctlExec runs a control command on the tenant's queue, past its cap.
func (t *Tenant) ctlExec(c *command) cmdResult { return t.send(c, true) }

// do runs fn on the queue as one request (exec) and returns its commit and
// error. A request refused before it ran — a full queue, a stopped tenant
// — never runs fn, so whatever fn would have captured keeps its zero value.
func (t *Tenant) do(fn func() (wal.Commit, error)) (wal.Commit, error) {
	res := t.exec(&command{fn: fn})
	return res.commit, res.err
}

// onLoop runs fn as the tenant's drainer, between the commands queued
// ahead of it and those behind (a checkpoint, which may seal), past the
// queue's cap. It fails, fn never run, once the tenant has stopped.
func (t *Tenant) onLoop(fn func()) error {
	return t.ctlExec(&command{fn: func() (wal.Commit, error) {
		fn()
		return wal.Commit{}, nil
	}}).err
}

// send queues c behind every command already queued — a request only
// while fewer than defaultSubmitRing wait, else it answers ErrRingFull; a
// control command (wait) always — and returns its result. The caller that
// finds no drainer becomes it; any other waits on done, which answers it
// or hands it the role. A drainer's first batch starts with its own
// command, so its answer is on done once drain returns. A stopped tenant
// answers errTenantGone, as does a command queued behind the stop.
func (t *Tenant) send(c *command, wait bool) cmdResult {
	c.done = make(chan cmdResult, 1)
	t.mu.Lock()
	switch {
	case t.stopped:
		t.mu.Unlock()
		return cmdResult{err: errTenantGone}
	case !wait && len(t.queue) >= defaultSubmitRing:
		t.mu.Unlock()
		return cmdResult{err: ErrRingFull}
	}
	t.queue = append(t.queue, c)
	busy := t.draining
	t.draining = true
	t.mu.Unlock()
	if busy {
		if res := <-c.done; res != handOff {
			return res
		}
	}
	t.drain()
	return <-c.done
}

// drain runs one batch as the tenant's drainer — the one caller at a time
// that touches the executive and the rest of the drainer-owned state —
// then passes the role on. Every command — request, control command or
// stop — comes through the one queue and applies in the order it was
// queued, so FIFO is what keeps journal order equal to apply order. The
// drainer takes up to drainBatch commands from the head of the queue and
// applies them in order, a run of consecutive single submits as one
// (processSubmitRun). Then it hands the role to the caller of the command
// now at the head, through its done, or, with the queue empty, lets it
// go. A stop that applies ends the tenant: the commands behind it answer
// errTenantGone and no drainer follows. The next drainer sees all this
// one wrote: the hand-off is a channel send, the release is mu's.
func (t *Tenant) drain() {
	defer dieOnPanic()
	t.mu.Lock()
	n := min(len(t.queue), drainBatch)
	batch := append(t.batch[:0], t.queue[:n]...)
	rest := copy(t.queue, t.queue[n:])
	clear(t.queue[rest:])
	t.queue = t.queue[:rest]
	t.mu.Unlock()

	for i := 0; i < len(batch); i++ {
		c := batch[i]
		if c.single() {
			j := i
			for j+1 < len(batch) && batch[j+1].single() {
				j++
			}
			t.processSubmitRun(batch[i : j+1])
			i = j
			continue
		}
		if t.process(c) {
			for _, c := range batch[i+1:] {
				c.done <- cmdResult{err: errTenantGone}
			}
			break
		}
	}
	clear(batch)
	t.batch = batch[:0]

	t.mu.Lock()
	var gone []*command
	var next *command
	switch {
	case t.stopped:
		gone, t.queue = t.queue, nil
	case len(t.queue) > 0:
		next = t.queue[0]
	}
	t.draining = next != nil
	t.mu.Unlock()
	for _, c := range gone {
		c.done <- cmdResult{err: errTenantGone}
	}
	if next != nil {
		next.done <- handOff
		// Let the next drainer run now, ahead of this caller's wait for
		// its own record's fsync: the batch it journals then joins that
		// group commit instead of waiting for the one after it.
		runtime.Gosched()
	}
}

// dieOnPanic keeps a panic in a command fatal to the process. A drainer
// is a request's goroutine, and the server recovers a handler's panic: the
// tenant would stay draining for good, every later command waiting until
// its queue filled. So dieOnPanic prints the stack the panic unwound and
// panics again on a goroutine nothing recovers.
func dieOnPanic() {
	if v := recover(); v != nil {
		fmt.Fprintf(os.Stderr, "panic in a tenant command: %v\n\n%s\n", v, debug.Stack())
		go panic(v)
		select {}
	}
}

// process executes one command other than a single submit (drain hands
// those to processSubmitRun) and reports whether the tenant stops: it runs
// fn, settles and completes the command, and a stop whose fn (if any)
// succeeded first stops the tenant: from then on send refuses, and closed
// is closed.
func (t *Tenant) process(c *command) (stop bool) {
	var res cmdResult
	if c.fn != nil {
		res.commit, res.err = c.fn()
	}
	t.settle()
	if stop = c.stop && res.err == nil; stop {
		t.mu.Lock()
		t.stopped = true
		t.mu.Unlock()
		close(t.closed)
	}
	c.done <- res
	return stop
}

// settle ends a command's apply. The decisions it made are the frames the
// log gained since the last published snapshot. Their lags, tallied one by
// one, go into the tenant's and the server's lag histograms in one merge
// each. A journaled tenant digests them — their count and a checksum of
// their wire bytes — and journals that one record, which follows its
// command record and precedes the next command; and once histSegmentMin
// events are unsealed it seals them, so it never holds a second segment's
// worth (a failed seal is retried by the next command that decides, or by
// the next checkpoint). Then the post-command snapshot publishes and stream
// followers wake if the log grew. A command is completed only after it,
// so whoever is acknowledged can already read its own effect.
func (t *Tenant) settle() {
	first := t.snap.Load().log.len()
	if t.log.len() > first {
		o := &t.obs
		o.lag.Merge(t.lags)
		if o.sobs != nil {
			o.sobs.dispatchLag.Merge(t.lags)
		}
		t.lags.Reset()
		t.worst = rat.Zero
		if h := t.hooks.Load(); h != nil {
			t.digest = t.log.digest(first, 0)
			// The digest is verification-only: recovery regenerates decisions
			// by replaying commands and checks them against it. An append
			// error here already wedged the log, so the following command
			// will fail loudly; nothing to do with it now.
			c, _ := h.append(wal.Record{Op: wal.OpDispatch, Tenant: t.id, DSeq: first, Count: t.digest.count, CRC: t.digest.crc})
			t.lsn = max(t.lsn, c.LSN)
			if t.log.len()-t.log.floor() >= int64(histSegmentMin) {
				_ = t.seal()
			}
		}
	}
	t.publish()
}

// processSubmitRun executes a maximal run of consecutive single submits
// taken from the queue in one batch — the other front end of applySubmits.
// Unlike a batch, the commands are independent: each validates on its own
// against the current state and fails on its own, the valid ones journal
// as ONE record, and all of them share one commit and therefore one
// fsync. Runs seldom form: under BenchmarkServerSubmitContended's 64
// clients with FsyncEvery=1 a submit costs 0.86–0.94 journal appends
// (its advances and digests included). What coalesces is the fsyncs, in
// the WAL's group commit of concurrent appends: 0.035 per submit.
//
// Keyed retries never reach the journal: a key already applied answers
// from the idempotency memory, and a key repeated *within* the run waits
// for the next pass, where it dedupes against the first instance (or
// re-validates, if that one failed). So does a submit that would take the
// group past maxRunBytes: the commands are independent, and sharing a
// record must not be what makes one too large to journal.
func (t *Tenant) processSubmitRun(run []*command) {
	for len(run) > 0 {
		jobs, valid, size, subtasks := t.jobs[:0], t.valid[:0], 0, int64(0)
		var again []*command
		inRun := map[string]struct{}{}
		for _, c := range run {
			key := c.job.Key
			if resp, seen := t.idem.lookup(key); seen {
				// Nothing is journaled for a replay, so the zero commit is
				// already durable by definition.
				c.done <- cmdResult{submit: resp}
				continue
			}
			if _, dup := inRun[key]; dup {
				again = append(again, c)
				continue
			}
			if key != "" {
				inRun[key] = struct{}{}
			}
			v, err := t.validateSubmit(&c.job)
			if err == nil {
				err = t.checkBacklog(subtasks, v.task.W.E)
			}
			if err != nil {
				c.done <- cmdResult{err: err}
				continue
			}
			if size += len(c.job.Name) + len(key); size > maxRunBytes && len(jobs) > 0 {
				again = append(again, c)
				continue
			}
			v.cmd = c
			jobs = append(jobs, c.job)
			valid = append(valid, v)
			subtasks += v.task.W.E
		}
		t.jobs, t.valid = jobs[:0], valid[:0]
		commit, err := t.applySubmits(jobs, valid)
		t.settle()
		for i := range valid {
			valid[i].cmd.done <- cmdResult{submit: valid[i].resp, commit: commit, err: err}
		}
		run = again
	}
}

// Close stops the tenant once every command queued ahead of the stop has
// applied: pending streams end and later commands answer errTenantGone.
// Idempotent; every caller returns once the tenant has stopped.
func (t *Tenant) Close() {
	t.ctlExec(&command{stop: true})
	<-t.closed
}

// Closed returns a channel closed when the tenant is deleted.
func (t *Tenant) Closed() <-chan struct{} { return t.closed }

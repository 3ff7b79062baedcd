package server

import (
	"errors"

	"desyncpfair/internal/rat"
	"desyncpfair/internal/wal"
)

// ErrRingFull reports that a tenant's submit ring is at capacity: the
// single-writer loop is applying commands as fast as it can and the
// bounded MPSC ring refuses to queue more. It maps to HTTP 429 — explicit
// backpressure, distinct from a failure. Clients retry; load generators
// count it separately from errors.
var ErrRingFull = errors.New("server: tenant submit ring full")

// errBacklogFull refuses a submit that would take the tenant's
// undispatched subtasks past MaxBacklog. Like a full ring it is 429: an
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

// defaultSubmitRing is every tenant's command-ring capacity: a submit that
// finds it full answers 429 (ErrRingFull).
const defaultSubmitRing = 256

// command is one queued request for a tenant's event loop: the single
// submit of job (fn nil, the one kind runLoop coalesces into runs), or fn, the
// closure the loop runs for any other request — it journals, applies and
// returns the record's commit, its typed answer captured by the caller. A
// stop ends the loop once its fn, if any, has succeeded: Close, or a
// delete whose fn journals it. The caller enqueues the command and blocks
// on done, which has capacity 1 so the loop never blocks on a completion
// send.
type command struct {
	job  wal.Job
	fn   func() (wal.Commit, error)
	stop bool

	done chan cmdResult
}

// single reports whether c is a single job submit.
func (c *command) single() bool { return c.fn == nil && !c.stop }

// cmdResult carries a command's outcome back to the enqueuing caller; a
// single submit's answer is submit, any other command's the caller's own.
type cmdResult struct {
	submit SubmitJobResponse
	commit wal.Commit
	err    error
}

// journalHooks bundles the durability callbacks, and the journal a seal
// writes its history file beside (nil for hooks SetJournal installs: such
// a tenant keeps its whole log); the tenant holds them behind an atomic
// pointer so installing them needs no lock against the loop.
type journalHooks struct {
	append func(wal.Record) (wal.Commit, error)
	fail   func(error)
	hist   *wal.Log
}

// exec runs a request on the loop. A request never waits for room: a
// full ring answers ErrRingFull (HTTP 429) at once.
func (t *Tenant) exec(c *command) cmdResult { return t.send(c, false) }

// ctlExec runs a control command on the loop, waiting for room.
func (t *Tenant) ctlExec(c *command) cmdResult { return t.send(c, true) }

// do runs fn on the loop as one request (exec) and returns its commit and
// error. A request refused before it ran — a full ring, a stopped tenant —
// never runs fn, so whatever fn would have captured keeps its zero value.
func (t *Tenant) do(fn func() (wal.Commit, error)) (wal.Commit, error) {
	res := t.exec(&command{fn: fn})
	return res.commit, res.err
}

// onLoop runs fn on the loop goroutine, between the commands queued ahead
// of it and those behind (a checkpoint, which may seal), waiting for
// room. It fails, fn never run, once the tenant has stopped.
func (t *Tenant) onLoop(fn func()) error {
	return t.ctlExec(&command{fn: func() (wal.Commit, error) {
		fn()
		return wal.Commit{}, nil
	}}).err
}

// send queues c on the tenant's one ring — waiting for room, or with wait
// false answering ErrRingFull — and waits for the loop to complete it. A
// stopped loop completes nothing more, so a sender also waits on closed;
// the loop completes every command it applied before it closes that, so
// done is asked once more then and a command that applied is never
// reported gone.
func (t *Tenant) send(c *command, wait bool) cmdResult {
	c.done = make(chan cmdResult, 1)
	select {
	case t.ring <- c:
	case <-t.closed:
		return cmdResult{err: errTenantGone}
	default:
		if !wait {
			return cmdResult{err: ErrRingFull}
		}
		select {
		case t.ring <- c:
		case <-t.closed:
			return cmdResult{err: errTenantGone}
		}
	}
	select {
	case res := <-c.done:
		return res
	case <-t.closed:
		select {
		case res := <-c.done:
			return res
		default:
			return cmdResult{err: errTenantGone}
		}
	}
}

// runLoop is the tenant's single-writer event loop: the only goroutine
// that touches the executive (the admission ledger and the task index
// with it) and the dispatch log after start(). Every command — request,
// control command or stop — comes through the one ring and applies in the
// order it was queued, so FIFO is what keeps journal order equal to apply
// order. The loop drains the ring in opportunistic batches (coalescing
// consecutive submits into one journal record), applies each command, and
// publishes an immutable snapshot that every read path — /metrics, Info,
// stream replay, recovery verification — loads without synchronizing with
// this goroutine. A stop that applies ends it: what is queued behind the
// stop never applies, and its senders answer errTenantGone.
func (t *Tenant) runLoop() {
	batch := make([]*command, 0, 64)
	for {
		batch = append(batch[:0], <-t.ring)
	fill:
		for len(batch) < cap(batch) {
			select {
			case c := <-t.ring:
				batch = append(batch, c)
			default:
				break fill
			}
		}
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
				return
			}
		}
	}
}

// process executes one command other than a single submit (runLoop hands
// those to processSubmitRun) and reports whether the loop should stop: it
// runs fn, settles and completes the command, and a stop whose fn (if
// any) succeeded closes the tenant.
func (t *Tenant) process(c *command) (stop bool) {
	var res cmdResult
	if c.fn != nil {
		res.commit, res.err = c.fn()
	}
	t.settle()
	c.done <- res
	if c.stop && res.err == nil {
		close(t.closed)
		return true
	}
	return false
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
// drained from the ring in one go — the other front end of applySubmits.
// Unlike a batch, the commands are independent: each validates on its own
// against the current state and fails on its own, the valid ones journal
// as ONE record, and all of them share one commit and therefore one
// fsync. This is where the MPSC ring buys its throughput: under concurrent
// clients with FsyncEvery=1, a drained run of N submits costs one frame
// and one group-commit wait instead of N.
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
// Idempotent; every caller returns once the loop has stopped.
func (t *Tenant) Close() {
	t.ctlExec(&command{stop: true})
	<-t.closed
}

// Closed returns a channel closed when the tenant is deleted.
func (t *Tenant) Closed() <-chan struct{} { return t.closed }

package server

import (
	"errors"

	"desyncpfair/internal/admission"
	"desyncpfair/internal/model"
	"desyncpfair/internal/wal"
)

// ErrRingFull reports that a tenant's submit ring is at capacity: the
// single-writer loop is applying commands as fast as it can and the
// bounded MPSC ring refuses to queue more. It maps to HTTP 429 — explicit
// backpressure, distinct from a failure. Clients retry; load generators
// count it separately from errors.
var ErrRingFull = errors.New("server: tenant submit ring full")

// maxRunBytes bounds the task names and keys one group of coalesced single
// submits may hold. The journal frames a record of up to 1 MiB and JSON
// writes a byte as at most six, so a group within it always fits.
const maxRunBytes = 128 << 10

// defaultSubmitRing is the per-tenant command-ring capacity when none is
// configured (Options.SubmitRing / pfaird -submit-ring).
const defaultSubmitRing = 256

// cmdKind discriminates the commands the tenant loop executes.
type cmdKind int

const (
	cmdSubmit cmdKind = iota
	cmdSubmitBatch
	cmdRegister
	cmdUnregister
	cmdAdvance
	cmdDrain
	cmdResize
	// cmdCtl runs an arbitrary closure on the loop goroutine with the
	// loop-owned state quiesced (checkpointing, the pre-delete flush).
	// Control commands arrive on their own unbuffered channel, never the
	// ring, so they cannot be starved by ring capacity.
	cmdCtl
	// cmdStop terminates the loop. Sent exactly once, by finishClose.
	cmdStop
)

// command is one queued request for a tenant's event loop. The HTTP
// handler validates the wire input, enqueues the command, and blocks on
// done; the loop journals, applies, and completes it. done has capacity
// 1 so the loop never blocks on a completion send.
type command struct {
	kind cmdKind

	submit    SubmitJobRequest   // cmdSubmit
	batch     []SubmitJobRequest // cmdSubmitBatch
	name      string             // cmdRegister / cmdUnregister
	w         model.Weight       // cmdRegister
	until, by string             // cmdAdvance
	resizeM   int                // cmdResize: target processor count
	drain     bool               // cmdResize: queue an infeasible shrink
	fn        func()             // cmdCtl

	done chan cmdResult
}

// cmdResult carries a command's outcome back to the enqueuing handler.
type cmdResult struct {
	submit SubmitJobResponse
	subs   SubmitJobsResponse
	adv    AdvanceResponse
	dec    admission.Decision
	resize ResizeResponse
	commit wal.Commit
	err    error
}

// journalHooks bundles the durability callbacks; the tenant holds them
// behind an atomic pointer so SetJournal needs no lock against the loop.
type journalHooks struct {
	append func(wal.Record) (wal.Commit, error)
	fail   func(error)
}

// exec enqueues c on the submit ring and waits for the loop to complete
// it. The enqueue is non-blocking: a full ring is reported as ErrRingFull
// (HTTP 429) instead of stalling the handler, which both bounds the
// tenant's queueing and — together with the closing gate — guarantees no
// sender is ever left stranded on a ring nobody drains.
func (t *Tenant) exec(c *command) cmdResult {
	c.done = make(chan cmdResult, 1)
	t.ringMu.RLock()
	if t.closing.Load() {
		t.ringMu.RUnlock()
		return cmdResult{err: errTenantGone}
	}
	select {
	case t.ring <- c:
		t.ringMu.RUnlock()
	default:
		t.ringMu.RUnlock()
		return cmdResult{err: ErrRingFull}
	}
	return <-c.done
}

// ctlExec runs c on the loop via the control channel (checkpoints and the
// close protocol; not subject to ring capacity). If the loop has already
// stopped, it reports errTenantGone instead of blocking forever.
func (t *Tenant) ctlExec(c *command) cmdResult {
	c.done = make(chan cmdResult, 1)
	select {
	case t.ctl <- c:
		return <-c.done
	case <-t.closed:
		return cmdResult{err: errTenantGone}
	}
}

// runLoop is the tenant's single-writer event loop: the only goroutine
// that touches the executive (and the admission ledger inside it), the
// task map, and the dispatch log after start(). It drains the ring in
// opportunistic batches (coalescing consecutive submits into one journal
// record), applies each command, and publishes an immutable snapshot
// that every read path — /metrics, Info, stream replay, recovery
// verification — loads without synchronizing with this goroutine. The ring
// is biased over the control channel so a control barrier observes a fully
// drained backlog.
func (t *Tenant) runLoop() {
	batch := make([]*command, 0, 64)
	for {
		batch = batch[:0]
		var first *command
		select {
		case first = <-t.ring:
		default:
			select {
			case first = <-t.ring:
			case first = <-t.ctl:
			}
		}
		batch = append(batch, first)
		if first.kind != cmdCtl && first.kind != cmdStop {
			for len(batch) < cap(batch) {
				select {
				case c := <-t.ring:
					batch = append(batch, c)
				default:
					goto drained
				}
			}
		}
	drained:
		for i := 0; i < len(batch); i++ {
			c := batch[i]
			if c.kind == cmdSubmit {
				j := i
				for j+1 < len(batch) && batch[j+1].kind == cmdSubmit {
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

// process executes one command and reports whether the loop should stop.
// (runLoop hands runs of single submits to processSubmitRun itself; one
// arriving here is a run of one.)
func (t *Tenant) process(c *command) (stop bool) {
	switch c.kind {
	case cmdSubmit:
		t.processSubmitRun([]*command{c})
	case cmdSubmitBatch:
		t.finish(c, t.applySubmitBatch(c.batch))
	case cmdRegister:
		t.finish(c, t.applyRegister(c.name, c.w))
	case cmdUnregister:
		t.finish(c, t.applyUnregister(c.name))
	case cmdAdvance:
		t.finish(c, t.applyAdvance(c.until, c.by))
	case cmdDrain:
		t.finish(c, t.applyDrain())
	case cmdResize:
		t.finish(c, t.applyResize(c.resizeM, c.drain))
	case cmdCtl:
		c.fn()
		c.done <- cmdResult{}
	case cmdStop:
		close(t.closed)
		// Commands that slipped into the ring before the closing gate and
		// were not flushed fail cleanly rather than hang their senders.
		for {
			select {
			case q := <-t.ring:
				q.done <- cmdResult{err: errTenantGone}
			default:
				c.done <- cmdResult{}
				return true
			}
		}
	}
	return false
}

// settle ends a command's apply. The decisions it made are the frames the
// log gained since the last published snapshot; a journaled tenant digests
// them — their count and a checksum of their wire bytes — and journals that
// one record, which follows its command record and precedes the next
// command. Then the post-command snapshot publishes and stream followers
// wake if the log grew. A command is completed only after it, so whoever is
// acknowledged can already read its own effect.
func (t *Tenant) settle() {
	first := t.snap.Load().log.len()
	if t.log.len() > first {
		if h := t.hooks.Load(); h != nil {
			t.digest = t.log.digest(first, 0)
			// The digest is verification-only: recovery regenerates decisions
			// by replaying commands and checks them against it. An append
			// error here already wedged the log, so the following command
			// will fail loudly; nothing to do with it now.
			_, _ = h.append(wal.Record{Op: wal.OpDispatch, Tenant: t.id, DSeq: first, Count: t.digest.count, CRC: t.digest.crc})
		}
	}
	if t.publish() {
		t.pingSubs()
	}
}

// finish settles c's apply and completes it.
func (t *Tenant) finish(c *command, res cmdResult) {
	t.settle()
	c.done <- res
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
		jobs, size := t.jobs[:0], 0
		var again []*command
		inRun := map[string]struct{}{}
		for _, c := range run {
			key := c.submit.Key
			if resp, seen := t.idemSeen(key); seen {
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
			job, err := t.validateSubmit(c.submit)
			if err != nil {
				c.done <- cmdResult{err: err}
				continue
			}
			if size += len(c.submit.Task) + len(key); size > maxRunBytes && len(jobs) > 0 {
				again = append(again, c)
				continue
			}
			job.cmd = c
			jobs = append(jobs, job)
		}
		t.jobs = jobs[:0]
		commit, err := t.applySubmits(jobs)
		t.settle()
		for i := range jobs {
			jobs[i].cmd.done <- cmdResult{submit: jobs[i].resp, commit: commit, err: err}
		}
		run = again
	}
}

// --- close protocol ---
//
// Deleting a tenant must journal its OpTenantDelete *after* every command
// already accepted into the ring (journal order is replay order), and no
// command may be accepted afterwards. The sequence:
//
//  1. beginClose wins the closing CAS and passes a ringMu write barrier:
//     after it returns, every in-flight exec has either enqueued or seen
//     closing and bailed — the ring can only shrink.
//  2. flushBacklog runs a control command that drains the ring to empty
//     through the normal paths, so everything accepted is journaled and
//     applied.
//  3. The caller journals the delete record (under its own locks).
//  4. finishClose sends cmdStop; the loop closes t.closed (ending streams
//     and unblocking control senders) and exits.
//
// abortClose reopens the gate if step 3 fails — the tenant then remains,
// fully consistent, as if the delete never happened.

func (t *Tenant) beginClose() bool {
	if !t.closing.CompareAndSwap(false, true) {
		return false
	}
	t.ringMu.Lock()
	//lint:ignore SA2001 write-lock barrier: flushes readers mid-enqueue.
	t.ringMu.Unlock()
	return true
}

func (t *Tenant) flushBacklog() {
	t.ctlExec(&command{kind: cmdCtl, fn: func() {
		for {
			select {
			case c := <-t.ring:
				t.process(c)
			default:
				return
			}
		}
	}})
}

func (t *Tenant) abortClose() {
	t.closing.Store(false)
}

func (t *Tenant) finishClose() {
	t.ctlExec(&command{kind: cmdStop})
}

// Close marks the tenant deleted: its backlog is flushed, pending streams
// end, the loop stops, and subsequent commands fail errTenantGone.
// Idempotent; concurrent callers wait for the first to finish.
func (t *Tenant) Close() {
	if !t.beginClose() {
		<-t.closed
		return
	}
	t.flushBacklog()
	t.finishClose()
}

// Closed returns a channel closed when the tenant is deleted.
func (t *Tenant) Closed() <-chan struct{} { return t.closed }

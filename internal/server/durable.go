package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"time"

	"desyncpfair/internal/admission"
	"desyncpfair/internal/model"
	"desyncpfair/internal/obs"
	"desyncpfair/internal/online"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/wal"
)

// Options configures a durable server (Open). A server without durability
// is created with New instead.
type Options struct {
	// DataDir holds the write-ahead log and snapshots.
	DataDir string
	// FsyncEvery group-commits the journal: an ack leaves fewer than this
	// many records — one per command, one per digest — unsynced (≤ 1 syncs
	// every record).
	FsyncEvery int
	// FsyncMaxDelay bounds how long any record may sit unsynced when
	// FsyncEvery > 1: a timer flushes the partial tail group so an idle
	// log always converges to durable. 0 selects the 100ms default; a
	// negative value disables the timer (tests with fake clocks use this
	// to keep fsync counts deterministic).
	FsyncMaxDelay time.Duration
	// SnapshotEvery folds the log into a fresh snapshot after this many
	// jobs, other commands and digests (a record counts by its
	// wal.Record.Weight). Defaults to 4096.
	SnapshotEvery int
	// FS overrides the filesystem (internal/faultfs in the recovery
	// suite); nil selects the real one.
	FS wal.FS
	// Clock is the observability clock (request timing, histograms, trace
	// timestamps, journal timings). Nil selects the real clock; tests
	// inject an obs.Fake to make every exposed duration exact.
	Clock obs.Clock
	// TraceBuffer is the per-tenant trace-ring capacity in events.
	// Defaults to 4096.
	TraceBuffer int
	// SubmitRing is the per-tenant command-ring capacity. Defaults to 256.
	// A full ring surfaces as HTTP 429 backpressure.
	SubmitRing int
	// Follower opens the server as a read-only replica: mutating handlers
	// answer 503, the tenant journal hooks are disarmed (state changes
	// arrive pre-journaled from the leader via ApplyReplicated), and
	// /healthz reports 503 "bootstrapping" until the replication tailer
	// marks the node caught up. Promote() flips it writable.
	Follower bool
	// StreamMaxLag bounds how many records a following dispatch stream may
	// fall behind before it is evicted with an in-band 410 control line
	// (slow consumers must not pin the process). 0 selects the default
	// (DefaultStreamMaxLag); negative disables eviction. Replication
	// streams are never evicted — followers block instead.
	StreamMaxLag int64
	// StreamStallTimeout bounds how long one streamed write may block on a
	// wedged client before the connection is severed. 0 selects the
	// default (DefaultStreamStall); negative disables the deadline.
	StreamStallTimeout time.Duration
}

// RecoveryInfo reports what Open rebuilt from disk; /healthz serves it.
type RecoveryInfo struct {
	Durable     bool   `json:"durable"`
	SnapshotLSN uint64 `json:"snapshotLSN"`
	Tenants     int    `json:"tenants"`
	// RecordsReplayed counts all log-tail records applied over the
	// snapshot; CommandsReplayed the commands among them, a submit group
	// as its jobs.
	RecordsReplayed  int `json:"recordsReplayed"`
	CommandsReplayed int `json:"commandsReplayed"`
	// Commands is the total command count reflected in the recovered
	// state (snapshot + replayed tail). It resumes the live counter.
	Commands uint64 `json:"commands"`
	// TruncatedBytes were discarded at torn segment tails — expected
	// after a crash.
	TruncatedBytes int64 `json:"truncatedBytes"`
	// DispatchMismatches counts journaled dispatch records that did not
	// match the regenerated decision, and ReplayErrors commands that
	// failed to re-apply. Both are 0 on every healthy recovery; non-zero
	// values mean the journal and the executive disagree.
	DispatchMismatches int `json:"dispatchMismatches"`
	ReplayErrors       int `json:"replayErrors"`
}

// snapshotPayload is the wal snapshot body: the full tenant registry plus
// the command counter it corresponds to.
type snapshotPayload struct {
	Commands uint64             `json:"commands"`
	Tenants  []tenantCheckpoint `json:"tenants,omitempty"`
}

// tenantCheckpoint images one tenant: its executive micro-state plus the
// dispatch log (which ?from= stream replay serves) and counters.
type tenantCheckpoint struct {
	ID     string `json:"id"`
	Reject int64  `json:"rejections"`
	MaxTar string `json:"maxTardiness"`
	// PendingM is a queued drain-mode shrink target still waiting for
	// utilization to fall (0 when none). The current M travels in Exec.
	PendingM int `json:"pendingM,omitempty"`
	// History is the manifest of the sealed prefix of the dispatch log
	// (history.go), Log the events after it, a JSON array spliced from the
	// log's own frames (dispatchLog.inline). A snapshot with no manifest
	// carries the whole log inline: what a tenant younger than one segment
	// writes, what every snapshot before sealing existed holds, and what
	// GET /v1/replication/snapshot serves.
	History []histSegment     `json:"history,omitempty"`
	Log     json.RawMessage   `json:"log,omitempty"`
	Exec    online.Checkpoint `json:"exec"`
	// Idem preserves the idempotency-key memory across snapshots, in FIFO
	// order, so a keyed retry still dedupes after a restart that replays
	// nothing.
	Idem []idemEntry `json:"idem,omitempty"`

	// unsealed are the resident chunks, a segment's worth or more, that
	// Tenant.checkpoint left out of Log for compact to seal into a history
	// file; never serialized.
	unsealed []chunk
}

// idemEntry is one remembered keyed submit in a tenant checkpoint.
type idemEntry struct {
	Key     string `json:"key"`
	At      string `json:"at"`
	Pending int    `json:"pending"`
}

// checkpoint snapshots the tenant by running on its loop goroutine via a
// control command, which quiesces every loop-owned field (the executive's
// Checkpoint must run on its single goroutine). Compact holds the opMu
// write side, so no handler can be mid-command: the ring is empty and the
// control command runs immediately. A tenant deleted concurrently yields
// a zero checkpoint; the caller skips it.
//
// Only the resident part of the dispatch log is imaged: short of a
// segment it is spliced into Log; from histSegmentMin events on the log is
// cut there and its closed chunks handed over by reference (immutable, the
// aliasing rule tenantSnap readers already rely on) to be sealed.
func (t *Tenant) checkpoint() tenantCheckpoint {
	var cp tenantCheckpoint
	res := t.ctlExec(&command{kind: cmdCtl, fn: func() {
		cp = tenantCheckpoint{
			ID:       t.id,
			Reject:   t.reject,
			MaxTar:   t.maxTar.String(),
			PendingM: t.ex.PendingM(),
			History:  t.log.hist,
			Exec:     t.ex.Checkpoint(),
		}
		if t.log.len()-t.log.floor() >= int64(histSegmentMin) {
			t.log.cut()
			cp.unsealed = t.log.full
		} else {
			cp.Log = t.log.inline()
		}
		for _, k := range t.idemQ {
			r := t.idem[k]
			cp.Idem = append(cp.Idem, idemEntry{Key: k, At: r.At, Pending: r.Pending})
		}
	}})
	if res.err != nil {
		return tenantCheckpoint{}
	}
	return cp
}

// sealHistory tells the tenant that a committed snapshot names hist, its
// manifest extended over the chunks the last checkpoint handed out: the
// loop installs it and drops those chunks from memory. Compact still holds
// opMu's write side, so nothing was logged in between.
func (t *Tenant) sealHistory(hist []histSegment) {
	t.ctlExec(&command{kind: cmdCtl, fn: func() {
		t.log.dropSealed(hist)
		t.publish()
	}})
}

// restoreTenant rebuilds a tenant from its checkpoint: the events of Log
// become the resident dispatch log after the sealed prefix History names
// (whose files the caller has verified; they stay on disk).
// online.Restore has validated Σwt ≤ M; a queued shrink target is
// reinstated by asking for the drain again, which must queue — a target
// the ledger would apply or reject cannot have been pending. The
// loop-owned fields are finished before start(), while no loop can be
// running.
func restoreTenant(cp tenantCheckpoint, ringSize int) (*Tenant, error) {
	if cp.ID == "" {
		return nil, fmt.Errorf("server: tenant checkpoint without id")
	}
	ex, err := online.Restore(cp.Exec)
	if err != nil {
		return nil, fmt.Errorf("server: tenant %q: %v", cp.ID, err)
	}
	maxTar, err := rat.Parse(cp.MaxTar)
	if err != nil {
		return nil, fmt.Errorf("server: tenant %q maxTardiness: %v", cp.ID, err)
	}
	var tail []DispatchEvent
	if len(cp.Log) > 0 {
		if err := json.Unmarshal(cp.Log, &tail); err != nil {
			return nil, fmt.Errorf("server: tenant %q dispatch log: %v", cp.ID, err)
		}
	}
	if cp.PendingM != 0 {
		if d, err := ex.ResizeDrain(cp.PendingM, true); err != nil || d.Outcome != admission.ResizeQueued {
			return nil, fmt.Errorf("server: tenant %q: pending resize target %d is not a queued shrink of m = %d, Σwt = %s",
				cp.ID, cp.PendingM, cp.Exec.M, ex.ActiveUtilization())
		}
	}
	t := newTenantCore(cp.ID, cp.Exec.Policy, ex, ringSize)
	t.log.hist, t.log.tail.first = cp.History, sealedEvents(cp.History)
	for _, ev := range tail {
		if err := t.log.restore(ev); err != nil {
			return nil, fmt.Errorf("server: tenant %q dispatch log: %v", cp.ID, err)
		}
	}
	t.maxTar = maxTar
	t.reject = cp.Reject
	for _, e := range cp.Idem {
		t.idemRemember(e.Key, SubmitJobResponse{At: e.At, Pending: e.Pending})
	}
	for _, task := range ex.System().Tasks {
		if ex.Active(task) {
			t.tasks[task.Name] = task
		}
	}
	t.start()
	return t, nil
}

// Open creates a durable server over opts.DataDir: it loads the latest
// snapshot, replays the journal tail through the real tenant code paths
// (the executive is deterministic, so replay regenerates the exact
// dispatch decisions the pre-crash server made — and verifies them against
// the journaled dispatch records), then folds the result into a fresh
// snapshot so the next boot starts from a compact directory.
func Open(opts Options) (*Server, error) {
	if opts.DataDir == "" {
		return nil, fmt.Errorf("server: Open needs a data dir")
	}
	snapEvery := opts.SnapshotEvery
	if snapEvery == 0 {
		snapEvery = 4096
	}
	maxDelay := opts.FsyncMaxDelay
	switch {
	case maxDelay == 0:
		maxDelay = 100 * time.Millisecond
	case maxDelay < 0:
		maxDelay = 0 // disabled
	}
	s := New()
	s.SetClock(opts.Clock)
	s.SetTraceBuffer(opts.TraceBuffer)
	s.SetSubmitRing(opts.SubmitRing)
	s.SetStreamPolicy(opts.StreamMaxLag, opts.StreamStallTimeout)
	l, rec, err := wal.Open(opts.DataDir, wal.Options{
		FS: opts.FS, FsyncEvery: opts.FsyncEvery, FsyncMaxDelay: maxDelay,
		SnapshotEvery: snapEvery,
		Now:           s.obs.clock.Now, Timings: walTimings{s.obs},
	})
	if err != nil {
		return nil, err
	}
	// The journal is attached before anything is restored or replayed, so
	// every tenant gets its hooks (addTenant) and digests what its commands
	// decide — what replay checks the journaled dispatch digests against.
	// s.journaling stays false until replay is over: nothing replayed is
	// journaled again.
	s.wal = l
	info := RecoveryInfo{
		Durable:        true,
		SnapshotLSN:    rec.SnapshotLSN,
		TruncatedBytes: rec.TruncatedBytes,
	}
	if rec.Snapshot != nil {
		var pay snapshotPayload
		if err := json.Unmarshal(rec.Snapshot, &pay); err != nil {
			l.Close()
			return nil, fmt.Errorf("server: snapshot payload: %v", err)
		}
		s.cmdSeq.Store(pay.Commands)
		for _, tc := range pay.Tenants {
			if err := copyHistory(io.Discard, l, tc.ID, tc.History); err != nil {
				l.Close()
				return nil, err
			}
			t, err := restoreTenant(tc, s.submitRing)
			if err != nil {
				l.Close()
				return nil, err
			}
			if _, err := s.addTenant(t); err != nil {
				t.Close()
				l.Close()
				return nil, err
			}
		}
	}
	for _, r := range rec.Records {
		info.RecordsReplayed++
		switch ok := s.applyRecord(r); {
		case r.IsCommand() && ok:
			info.CommandsReplayed += r.Weight()
		case r.IsCommand():
			info.ReplayErrors++
		case !ok:
			info.DispatchMismatches++
		}
	}
	info.Commands = s.cmdSeq.Load()
	info.Tenants = len(s.allTenants())
	s.recovery = &info
	s.appliedLSN.Store(l.WrittenLSN())
	if opts.Follower {
		// A follower applies records the leader already journaled: its
		// journal hooks stay disarmed (s.journaling false) and the node
		// reports bootstrapping until the replication tailer catches it up
		// to the leader's durable tip.
		s.role.Store(int32(RoleFollower))
		s.bootstrapFrom = s.obs.clock.Now()
		s.bootstrapNs.Store(-1)
		s.bootstrapping.Store(true)
		s.replLagLSN.Store(-1)
	} else {
		s.journaling.Store(true)
	}
	// Fold the replayed tail into a fresh snapshot so boot always starts
	// the journal from a compact directory.
	if err := s.compact(); err != nil {
		l.Close()
		return nil, fmt.Errorf("server: boot snapshot: %v", err)
	}
	return s, nil
}

// applyRecord replays one journal record — recovery's, or one a follower
// was shipped — and reports whether it did what the server that journaled
// it recorded. Command records re-apply through the same tenant methods
// that served them (and count as commands when they do, a submit group as
// its jobs); dispatch records are verified against the regenerated
// decisions. A failure is for the caller to count, never fatal — a server with non-zero counters is
// degraded, and /healthz says so.
func (s *Server) applyRecord(r wal.Record) (ok bool) {
	switch r.Op {
	case wal.OpTerm:
		return true // leadership-change marker: no state to apply
	case wal.OpTenantCreate:
		nt, err := newTenant(r.Tenant, r.M, r.Policy, s.submitRing)
		if err == nil {
			if _, err = s.addTenant(nt); err != nil {
				nt.Close() // never installed; stop its loop goroutine
			}
		}
		ok = err == nil
	case wal.OpTenantDelete:
		ok = s.dropTenant(r.Tenant)
	case wal.OpDispatch:
		if t := s.tenant(r.Tenant); t != nil {
			ok = s.verifyDispatch(t, r)
		}
	default:
		if t := s.tenant(r.Tenant); t != nil {
			ok = t.replay(r)
		}
	}
	if ok && r.IsCommand() {
		s.cmdSeq.Add(uint64(r.Weight()))
	}
	return ok
}

// verifyDispatch reports whether a journaled dispatch record matches the
// decisions this node regenerated. It never needs the frames resident — a
// follower compacts where it likes, and may have sealed them into a history
// file since the command applied.
func (s *Server) verifyDispatch(t *Tenant, r wal.Record) bool {
	sn := t.snap.Load()
	if r.Count == 0 {
		// A journal written before the digest: one record per decision,
		// checked field by field against the frame, which for this form has
		// to be in memory. Recovery never compacts between records. A
		// follower of a leader that still writes the form can, and what it
		// has sealed since it can no longer check: that is not a mismatch.
		if r.DSeq >= 0 && r.DSeq < sn.log.floor() {
			return true
		}
		ev, ok := t.eventAt(r.DSeq)
		return ok && ev.Task == r.Name && ev.Index == r.Index && ev.Finish == r.Finish
	}
	// The record follows its command's with no other of the tenant between
	// them, so it must equal the digest the tenant computed when it applied
	// its last deciding command: as many decisions, at the same seqs, every
	// byte of every frame the same.
	want := sn.digest
	if want.count == 0 {
		// A tenant that holds no digest was restored from a snapshot taken
		// between the command and this record and has decided nothing since:
		// the decisions are the end of its log, digested where they lie —
		// history files, then memory.
		if r.DSeq < 0 || r.DSeq >= sn.log.len() {
			return false
		}
		var sealed uint32
		if r.DSeq < sn.log.floor() {
			sum := crc32.NewIEEE()
			if err := s.copySealed(sum, sn.log.hist, r.DSeq); err != nil {
				return false
			}
			sealed = sum.Sum32()
		}
		want = sn.log.digest(r.DSeq, sealed)
	}
	return want == dispatchDigest{first: r.DSeq, count: r.Count, crc: r.CRC}
}

// replay re-applies one journaled command of this tenant, reporting whether
// it did what the pre-crash server journaled it as doing: it applied — a
// journaled registration was admitted, a journaled resize applied or
// queued, anything else means journal and state diverged.
func (t *Tenant) replay(r wal.Record) bool {
	var err error
	switch r.Op {
	case wal.OpTaskRegister:
		var d admission.Decision
		d, _, err = t.RegisterTask(r.Name, model.W(r.E, r.P))
		return err == nil && d.Admitted
	case wal.OpTaskUnregister:
		_, err = t.UnregisterTask(r.Name)
	case wal.OpJobSubmit:
		if len(r.Jobs) == 0 {
			_, _, err = t.SubmitJobReq(SubmitJobRequest{Task: r.Name, At: r.At, Earliness: r.Earliness, Key: r.Key})
			break
		}
		// A group — a batch, or a run of singles whose keys were all new —
		// re-applies as the batch it is on disk: all of it or none.
		reqs := make([]SubmitJobRequest, len(r.Jobs))
		for i, j := range r.Jobs {
			reqs[i] = SubmitJobRequest{Task: j.Name, At: j.At, Earliness: j.Earliness, Key: j.Key}
		}
		_, _, err = t.SubmitJobs(reqs)
	case wal.OpAdvance:
		_, _, err = t.Advance(r.At, "")
	case wal.OpDrain:
		_, _, err = t.Drain()
	case wal.OpResize:
		var resp ResizeResponse
		resp, _, err = t.Resize(r.M, r.Mode == "drain")
		return err == nil && resp.Outcome != admission.ResizeRejected.String()
	default:
		return false
	}
	return err == nil
}

// journalRecord is the tenants' durability hook: it *enqueues* the record
// (frame encode + buffered write, no fsync) and counts commands, a submit
// group as its jobs. The caller carries the returned commit out of its
// locks and waits on it via
// waitDurable before acking — compact's opMu quiesce still sees a cmdSeq
// consistent with applied state because enqueue and apply both happen in
// one tenant command inside opMu's read side.
func (s *Server) journalRecord(r wal.Record) (wal.Commit, error) {
	if s.wal == nil || !s.journaling.Load() {
		// In-memory server, replay, or a follower applying replicated
		// records: the record is either not durable by design or already
		// journaled upstream — never append it again here.
		return wal.Commit{}, nil
	}
	c, err := s.wal.AppendAsync(r)
	if err != nil {
		return wal.Commit{}, err
	}
	if r.IsCommand() {
		s.cmdSeq.Add(uint64(r.Weight()))
	}
	return c, nil
}

// waitDurable blocks until the commit's record is covered by an fsync
// (group commit: the first waiter syncs for everyone queued behind it).
// mutate calls it after releasing opMu, so a slow fsync stalls only the
// acking requests. A zero commit — in-memory server, non-journaled
// operation — returns immediately.
func (s *Server) waitDurable(c wal.Commit) error {
	if s.wal == nil || c.LSN == 0 {
		return nil
	}
	return s.wal.Wait(c)
}

// Recovery returns what Open rebuilt, or nil for a non-durable server.
func (s *Server) Recovery() *RecoveryInfo { return s.recovery }

// compact quiesces every mutating operation (opMu writer side), images the
// registry, and folds it into a fresh wal snapshot. What it writes is
// proportional to what happened since the previous one: a tenant's
// dispatch log leaves the snapshot — and, once the snapshot is committed,
// memory — a segment at a time (history.go), and the payload names the
// sealed segments instead of repeating them. The order — history files,
// snapshot, then garbage — is the one internal/wal documents;
// snapshot.json is the only commit point.
func (s *Server) compact() error {
	if s.wal == nil {
		return nil
	}
	s.opMu.Lock()
	defer s.opMu.Unlock()
	start := s.obs.clock.Now()
	pay := snapshotPayload{Commands: s.cmdSeq.Load()}
	var files []wal.Sidecar
	type seal struct {
		t    *Tenant
		hist []histSegment
	}
	var seals []seal
	for _, t := range s.allTenants() {
		cp := t.checkpoint()
		if cp.ID == "" {
			continue // deleted while we walked the registry
		}
		if cp.unsealed != nil {
			seg, file := sealSegment(s.wal.SidecarName(len(files)), cp.unsealed)
			// A fresh manifest slice: the tenant's own must not change
			// before the snapshot naming the new segment is installed.
			cp.History = append(cp.History[:len(cp.History):len(cp.History)], seg)
			files = append(files, file)
			seals = append(seals, seal{t, cp.History})
		}
		pay.Tenants = append(pay.Tenants, cp)
	}
	if err := s.wal.WriteSidecars(files); err != nil {
		return err
	}
	buf, err := json.Marshal(pay)
	if err != nil {
		return err
	}
	if err := s.wal.Compact(buf); err != nil {
		return err
	}
	keep := map[string]bool{}
	var histBytes int64
	for _, cp := range pay.Tenants {
		for _, seg := range cp.History {
			keep[seg.File] = true
			histBytes += seg.Bytes
		}
	}
	for _, sl := range seals {
		sl.t.sealHistory(sl.hist)
	}
	s.wal.RemoveSidecarsExcept(keep)
	s.obs.snapshotBytes.Store(int64(len(buf)))
	s.obs.histSegments.Store(int64(len(keep)))
	s.obs.histBytes.Store(histBytes)
	s.obs.compact.Observe(s.obs.clock.Now().Sub(start).Seconds())
	return nil
}

// maybeCompact runs a snapshot when the journal says one is due. Called by
// mutating handlers after they release the opMu read side.
func (s *Server) maybeCompact() {
	if s.wal != nil && s.wal.ShouldCompact() {
		// A failed periodic snapshot is not fatal: the journal still has
		// every record, and the next mutation will retry.
		_ = s.compact()
	}
}

// Close gracefully stops a durable server: streams drain (Shutdown), a
// final snapshot captures the exact current state, and the journal closes.
// Safe on non-durable servers, where it is just Shutdown.
func (s *Server) Close() error {
	s.Shutdown()
	if s.wal == nil {
		return nil
	}
	err := s.compact()
	if errors.Is(err, wal.ErrWedged) {
		err = nil // already failed earlier; nothing more to preserve
	}
	// Stop every tenant loop after the final snapshot (checkpoint needs
	// the loops alive) and before the journal closes (the close flush may
	// still journal backlogged commands).
	for _, t := range s.allTenants() {
		t.Close()
	}
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// WALStats exposes the journal counters for /metrics (zero for a
// non-durable server).
func (s *Server) WALStats() wal.Stats {
	if s.wal == nil {
		return wal.Stats{}
	}
	return s.wal.Stats()
}

// statusOf maps an operation error to its HTTP status: a wedged journal is
// the server's failure (503), a command whose record does not fit a journal
// frame is too large a request (413; nothing was written), a full submit
// ring is explicit backpressure (429, retryable), everything else keeps the
// handler's own fallback.
func statusOf(err error, fallback int) int {
	if errors.Is(err, wal.ErrWedged) {
		return http.StatusServiceUnavailable
	}
	if errors.Is(err, wal.ErrRecordTooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	if errors.Is(err, ErrRingFull) {
		return http.StatusTooManyRequests
	}
	return fallback
}

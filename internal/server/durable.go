package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"desyncpfair/internal/admission"
	"desyncpfair/internal/model"
	"desyncpfair/internal/obs"
	"desyncpfair/internal/online"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/wal"
)

// Options configures a server (Open). Zero values select the defaults.
// Without a DataDir the server is in-memory: the journal's fields —
// FsyncEvery, FsyncMaxDelay, SnapshotEvery and FS — are ignored, and
// Follower is refused.
type Options struct {
	// DataDir holds the write-ahead log and snapshots; empty keeps all
	// state in memory.
	DataDir string
	// FsyncEvery group-commits the journal: an ack leaves fewer than this
	// many records — one per command, one per digest — unsynced (≤ 1 syncs
	// every record).
	FsyncEvery int
	// FsyncMaxDelay bounds how long any record may sit unsynced when
	// FsyncEvery > 1: a timer flushes the partial tail group so an idle
	// log always converges to durable. 0 selects DefaultFsyncMaxDelay; a
	// negative value disables the timer (tests with fake clocks use this
	// to keep fsync counts deterministic).
	FsyncMaxDelay time.Duration
	// SnapshotEvery folds the log into a fresh snapshot after this many
	// jobs, other commands and digests (a record counts by its
	// wal.Record.Weight). 0 selects DefaultSnapshotEvery.
	SnapshotEvery int
	// FS overrides the filesystem (internal/faultfs in the recovery
	// suite); nil selects the real one.
	FS wal.FS
	// Clock is the observability clock (request timing, histograms, trace
	// timestamps, journal timings). Nil selects the real clock; tests
	// inject an obs.Fake to make every exposed duration exact.
	Clock obs.Clock
	// Follower opens the server as a read-only replica: mutating handlers
	// answer 503, the tenant journal hooks are disarmed (state changes
	// arrive pre-journaled from the leader via ApplyReplicated), and
	// /healthz reports 503 "bootstrapping" until the replication tailer
	// marks the node caught up. Promote() flips it writable.
	Follower bool
}

// The journal's defaults, what pfaird's -fsync-max-delay and
// -snapshot-every flags start from.
const (
	DefaultFsyncMaxDelay = 100 * time.Millisecond
	DefaultSnapshotEvery = 4096
)

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
// the command count at its cut.
type snapshotPayload struct {
	Commands uint64             `json:"commands"`
	Tenants  []tenantCheckpoint `json:"tenants,omitempty"`
}

// tenantCheckpoint images one tenant: its executive micro-state plus the
// dispatch log (which ?from= stream replay serves) and counters.
type tenantCheckpoint struct {
	ID string `json:"id"`
	// LSN is the last record of this tenant the checkpoint reflects (its
	// create, commands and digests, never its delete): replay skips the
	// tenant's records at or below it (applyRecord). Absent in a snapshot
	// written before checkpoints carried it, which skips nothing.
	LSN    uint64 `json:"lsn,omitempty"`
	Reject int64  `json:"rejections"`
	MaxTar string `json:"maxTardiness"`
	// PendingM is the queued drain-mode shrink target of a snapshot written
	// before Exec carried it; restoreTenant reads it, checkpoint writes
	// none.
	PendingM int `json:"pendingM,omitempty"`
	// History is the manifest of the sealed prefix of the dispatch log
	// (history.go), Log the events after it, a JSON array of the log's own
	// frames (marshalPayload writes it from inline). A snapshot with no
	// manifest carries the whole log inline: what a tenant younger than one
	// segment writes, what every snapshot before sealing existed holds, and
	// what GET /v1/replication/snapshot serves.
	History []histSegment     `json:"history,omitempty"`
	Log     json.RawMessage   `json:"log,omitempty"`
	Exec    online.Checkpoint `json:"exec"`
	// Idem preserves the idempotency-key memory across snapshots, in FIFO
	// order, so a keyed retry still dedupes after a restart that replays
	// nothing.
	Idem []idemEntry `json:"idem,omitempty"`

	// inline is the resident chunks, by reference and never serialized
	// themselves, for marshalPayload to write as Log.
	inline []chunk
}

// idemEntry is one remembered keyed submit in a tenant checkpoint.
type idemEntry struct {
	Key     string `json:"key"`
	At      string `json:"at"`
	Pending int    `json:"pending"`
}

// checkpoint snapshots the tenant as its drainer (onLoop), between the
// commands queued ahead of it and those behind, which quiesces every
// drainer-owned field (the executive's Checkpoint must run where its
// commands do). A tenant that has stopped — deleted, or stopped by
// Server.Close before the journal closes — is quiescent for good, so it is
// imaged where it stands.
func (t *Tenant) checkpoint() (cp tenantCheckpoint, err error) {
	if t.onLoop(func() { cp, err = t.image() }) != nil {
		cp, err = t.image()
	}
	return cp, err
}

// image is checkpoint's body. From histSegmentMin/2 unsealed events on the
// tenant seals them first, appending them to its open history segment, so
// only the manifest and a shorter resident rest of the dispatch log are
// imaged: a busy tenant's checkpoint carries no frames, and no frame is
// written both into a snapshot and into a file. Below that floor the tail
// rides inline and no file is made, as for every short-lived tenant. settle
// seals at histSegmentMin after every command that decides; the floor here
// also seals a log no command has settled since it grew: one restored with
// a long inline tail (a follower bootstrapped from the replication
// snapshot, which carries the whole log inline, or a snapshot written
// before sealing existed), or one whose seal in settle failed. The log is
// never copied here: its chunks are handed over by reference (immutable,
// the aliasing rule tenantSnap readers already rely on) to marshalPayload,
// which copies them once, into the payload.
func (t *Tenant) image() (tenantCheckpoint, error) {
	if n := t.log.len() - t.log.floor(); n > 0 && 2*n >= int64(histSegmentMin) {
		if err := t.seal(); err != nil {
			return tenantCheckpoint{}, err
		}
	}
	cp := tenantCheckpoint{
		ID:      t.id,
		LSN:     t.lsn,
		Reject:  t.reject,
		MaxTar:  t.maxTar.String(),
		History: t.log.hist,
		Exec:    t.ex.Checkpoint(),
		Idem:    t.idem.entries(),
		inline:  t.log.chunks(),
	}
	return cp, nil
}

// restoreTenant rebuilds a tenant from its checkpoint: the events of Log
// become the resident dispatch log after the sealed prefix History names
// (whose files the caller has verified; they stay on disk, and the last
// one, which may be longer than its entry, is closed: the tenant's next
// seal starts a new file), each event's
// task resolved by name to an executive ID (the executive keeps every task
// it ever registered).
// online.Restore validates Σwt ≤ M and reinstates a queued shrink target
// (one a snapshot written before Exec carried it has as PendingM) only if
// the ledger would queue it. The drainer-owned fields are finished before
// the tenant is published, while no command can run.
func restoreTenant(cp tenantCheckpoint, o *serverObs) (*Tenant, error) {
	if cp.ID == "" {
		return nil, fmt.Errorf("server: tenant checkpoint without id")
	}
	if cp.Exec.PendingM == 0 {
		cp.Exec.PendingM = cp.PendingM
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
	t := newTenantCore(cp.ID, cp.Exec.Policy, ex, o, true)
	t.log.hist, t.log.tail.first = cp.History, sealedEvents(cp.History)
	ids := t.log.taskIDs()
	for _, ev := range tail {
		if err := t.log.restore(ev, ids); err != nil {
			return nil, fmt.Errorf("server: tenant %q dispatch log: %v", cp.ID, err)
		}
	}
	t.maxTar = maxTar
	t.reject = cp.Reject
	t.lsn = cp.LSN
	for _, e := range cp.Idem {
		if len(e.Key) > MaxKeyLen || len(e.At) > math.MaxUint8 || e.Pending < 0 || e.Pending > math.MaxInt32 {
			return nil, fmt.Errorf("server: tenant %q idempotency key %q: malformed entry", cp.ID, e.Key)
		}
		t.idem.remember(e.Key, SubmitJobResponse{At: e.At, Pending: e.Pending})
	}
	t.publish()
	return t, nil
}

// Open creates the server opts configures. Without a DataDir it is the
// in-memory server. With one it is durable: Open loads the latest
// snapshot, replays the journal tail through the real tenant code paths
// (the executive is deterministic, so replay regenerates the exact
// dispatch decisions the pre-crash server made — and verifies them against
// the journaled dispatch records), then folds the result into a fresh
// snapshot so the next boot starts from a compact directory.
func Open(opts Options) (*Server, error) {
	if opts.DataDir == "" {
		if opts.Follower {
			return nil, errors.New("server: a follower needs a data dir (its journal is its promotion state)")
		}
		return newServer(opts), nil
	}
	snapEvery := opts.SnapshotEvery
	if snapEvery == 0 {
		snapEvery = DefaultSnapshotEvery
	}
	fsyncMaxDelay := opts.FsyncMaxDelay
	switch {
	case fsyncMaxDelay < 0:
		fsyncMaxDelay = 0
	case fsyncMaxDelay == 0:
		fsyncMaxDelay = DefaultFsyncMaxDelay
	}
	s := newServer(opts)
	l, rec, err := wal.Open(opts.DataDir, wal.Options{
		FS: opts.FS, FsyncEvery: opts.FsyncEvery, FsyncMaxDelay: fsyncMaxDelay,
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
		s.cmdBase = pay.Commands
		for _, tc := range pay.Tenants {
			if err := copyHistory(io.Discard, l, tc.ID, tc.History); err != nil {
				l.Close()
				return nil, err
			}
			t, err := restoreTenant(tc, s.obs)
			if err != nil {
				l.Close()
				return nil, err
			}
			if _, err := s.addTenant(t); err != nil {
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
			s.cmdBase += uint64(r.Weight())
		case r.IsCommand():
			info.ReplayErrors++
		case !ok:
			info.DispatchMismatches++
		}
	}
	info.Commands = s.cmdBase
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
// that served them; dispatch records are verified against the regenerated
// decisions. A record at or below its tenant's LSN is one the tenant's
// checkpoint already reflects — compaction checkpoints each tenant after
// its cut, on the tenant's loop — so it is skipped, and did what it
// recorded. A failure is for the caller to count, never fatal — a server
// with non-zero counters is degraded, and /healthz says so.
func (s *Server) applyRecord(r wal.Record) (ok bool) {
	t := s.tenant(r.Tenant)
	if t != nil && r.LSN <= t.snap.Load().lsn {
		return true
	}
	switch r.Op {
	case wal.OpTerm:
		return true // leadership-change marker: no state to apply
	case wal.OpTenantCreate:
		nt, err := newTenant(r.Tenant, r.M, r.Policy, s.obs, true)
		if err == nil {
			nt.lsn = r.LSN // before any command reaches it
			_, err = s.addTenant(nt)
		}
		return err == nil
	case wal.OpTenantDelete:
		if t != nil {
			found, _, err := s.removeTenant(t)
			ok = found && err == nil
		}
	case wal.OpDispatch:
		if t != nil {
			ok = s.verifyDispatch(t, r)
		}
	default:
		if t != nil {
			ok = t.replay(r)
		}
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
		// to be in memory. A tenant may seal between a command and these
		// records (a follower of a leader that still writes the form, when
		// it compacts; any replay, at histSegmentMin unsealed events), and
		// what it has sealed since it can no longer check: that is not a
		// mismatch.
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

// replay re-applies one journaled command of this tenant, as one command
// on its loop that also moves the tenant's LSN to the record's, reporting
// whether it did what the pre-crash server journaled it as doing: it
// applied — a journaled registration was admitted, a journaled resize
// applied or queued, anything else means journal and state diverged.
func (t *Tenant) replay(r wal.Record) (ok bool) {
	t.do(func() (wal.Commit, error) {
		ok = t.reapply(r)
		t.lsn = r.LSN
		return wal.Commit{}, nil
	})
	return ok
}

// reapply is replay's body, on the loop: each op through the applier that
// served it.
func (t *Tenant) reapply(r wal.Record) bool {
	var err error
	switch r.Op {
	case wal.OpTaskRegister:
		var d admission.Decision
		d, _, err = t.applyRegister(r.Name, model.W(r.E, r.P))
		return err == nil && d.Admitted
	case wal.OpTaskUnregister:
		_, err = t.applyUnregister(r.Name)
	case wal.OpJobSubmit:
		// Every form re-applies as the batch it is on disk, all of it or
		// none: a group (a batch, or a run of singles whose keys were all
		// new) and a flat record, a batch of one. For one job the batch is
		// the single submit: a seen key is a no-op, and backlog, validation
		// and trace (begin, WAL, apply) are the same. applySubmits resolves
		// each job's at in place, into the record's own jobs.
		_, err = t.applySubmitBatch(r.SubmittedJobs(), nil)
	case wal.OpAdvance:
		_, _, err = t.applyAdvance(r.At, "")
	case wal.OpDrain:
		_, _, err = t.applyDrain()
	case wal.OpResize:
		var resp ResizeResponse
		resp, _, err = t.applyResize(r.M, r.Mode == "drain")
		return err == nil && resp.Outcome != admission.ResizeRejected.String()
	default:
		return false
	}
	return err == nil
}

// journalRecord is the tenants' durability hook: it *enqueues* the record
// (frame encode + buffered write, no fsync; the journal counts the
// commands). The caller carries the returned commit out of its locks and
// waits on it via waitDurable before acking.
func (s *Server) journalRecord(r wal.Record) (wal.Commit, error) {
	if s.wal == nil || !s.journaling.Load() {
		// In-memory server, replay, or a follower applying replicated
		// records: the record is either not durable by design or already
		// journaled upstream — never append it again here.
		return wal.Commit{}, nil
	}
	return s.wal.AppendAsync(r)
}

// waitDurable blocks until the commit's record is covered by an fsync
// (group commit: the first waiter syncs for everyone queued behind it).
// mutate calls it outside every lock, so a slow fsync stalls only the
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

// compact folds the registry into a fresh wal snapshot, stopping no
// request: a fuzzy checkpoint. It reads the journal's cut and the tenant
// list together, under regMu's read side — creates and deletes journal
// under its write side, so none falls between the two — then checkpoints
// each tenant on its own loop, at or past the cut, and the snapshot
// installs at the cut. Each checkpoint's LSN tells replay which of the
// tenant's records after the cut it already reflects. What it writes is
// proportional to what happened since the previous one: a tenant's
// dispatch log leaves the snapshot, and memory, a segment at a time as the
// tenant seals it into a history file (history.go), and the payload names
// the sealed segments instead of repeating them. The order — history
// files, snapshot, then garbage — is the one internal/wal documents;
// snapshot.json is the only commit point.
func (s *Server) compact() error {
	if s.wal == nil {
		return nil
	}
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	return s.compactLocked()
}

// compactLocked is compact's body, compactMu held.
func (s *Server) compactLocked() error {
	start := s.obs.clock.Now()
	cut, tenants := s.cut()
	pay := snapshotPayload{Commands: s.cmdBase + cut.Commands}
	for _, t := range tenants {
		cp, err := t.checkpoint()
		if err != nil {
			return err
		}
		pay.Tenants = append(pay.Tenants, cp)
	}
	buf, err := marshalPayload(pay)
	if err != nil {
		return err
	}
	if err := s.wal.CompactAt(cut, buf); err != nil {
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
	s.wal.RemoveSidecarsExcept(cut, keep)
	s.obs.snapshotBytes.Store(int64(len(buf)))
	s.obs.histSegments.Store(int64(len(keep)))
	s.obs.histBytes.Store(histBytes)
	s.obs.compact.Observe(s.obs.clock.Now().Sub(start).Seconds())
	return nil
}

// marshalPayload renders pay byte for byte as json.Marshal does with each
// tenant's Log set to the JSON array of its inline chunks, copying each
// frame once, from its chunk into the payload. Each tenant is marshaled
// first without its Log (encoding/json would re-scan a json.RawMessage to
// compact and HTML-escape it, which changes nothing for frames that are
// json.Marshal output already); then the payload is written into one
// buffer of exactly its size, each inline log right before "exec": the
// fields ahead of it are fixed names and the manifest, none called "exec",
// and no string can hold the unescaped quotes of `,"exec":`. A
// checkpoint's own Log, the decoded form, is not written.
func marshalPayload(pay snapshotPayload) ([]byte, error) {
	head := strconv.AppendUint([]byte(`{"commands":`), pay.Commands, 10)
	size := len(head) + len("}")
	if len(pay.Tenants) > 0 {
		size += len(`,"tenants":[]`) + len(pay.Tenants) - 1
	}
	js := make([][]byte, len(pay.Tenants))
	for i, cp := range pay.Tenants {
		cp.Log = nil
		j, err := json.Marshal(cp)
		if err != nil {
			return nil, err
		}
		js[i] = j
		size += len(j)
		if len(cp.inline) > 0 {
			size += len(`,"log":`) + wireBytesOf(cp.inline) + 1
		}
	}
	b := append(make([]byte, 0, size), head...)
	for i, j := range js {
		if i == 0 {
			b = append(b, `,"tenants":[`...)
		} else {
			b = append(b, ',')
		}
		cp := &pay.Tenants[i]
		if len(cp.inline) == 0 {
			b = append(b, j...)
			continue
		}
		at := bytes.Index(j, []byte(`,"exec":`))
		if at < 0 {
			return nil, fmt.Errorf("server: tenant %q checkpoint has no exec", cp.ID)
		}
		b = append(appendArray(append(append(b, j[:at]...), `,"log":`...), cp.inline), j[at:]...)
	}
	if len(pay.Tenants) > 0 {
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// cut reads the journal's cut and the registry with it. A follower
// journals a shipped record before it applies it (ApplyReplicated), so on
// one the cut waits, a record at most, for the apply to catch up: a cut
// between the two would cover a record no checkpoint reflects. A wedged
// journal installs no snapshot, so nothing is waited for.
func (s *Server) cut() (wal.Cut, []*Tenant) {
	for {
		s.regMu.RLock()
		cut, tenants := s.wal.Cut(), s.tenantsLocked()
		s.regMu.RUnlock()
		if s.journaling.Load() || s.appliedLSN.Load() >= cut.LSN || s.wal.Wedged() {
			return cut, tenants
		}
		runtime.Gosched()
	}
}

// maybeCompact runs a snapshot when the journal says one is due, unless one
// is running: the request that finds it so neither waits for it nor
// repeats it once it is done. Called by mutating handlers after their
// durability wait.
func (s *Server) maybeCompact() {
	if s.wal == nil || !s.wal.ShouldCompact() || !s.compactMu.TryLock() {
		return
	}
	defer s.compactMu.Unlock()
	if s.wal.ShouldCompact() {
		// A failed periodic snapshot is not fatal: the journal still has
		// every record, and the next mutation will retry.
		_ = s.compactLocked()
	}
}

// Close gracefully stops a server: streams drain (Shutdown) and every
// tenant loop stops. A durable server first takes a final snapshot of the
// exact current state, and its journal closes last.
func (s *Server) Close() error {
	s.Shutdown()
	var err error
	if s.wal != nil {
		if err = s.compact(); errors.Is(err, wal.ErrWedged) {
			err = nil // already failed earlier; nothing more to preserve
		}
	}
	// Stop every tenant loop after the final snapshot and before the
	// journal closes (the close flush may still journal backlogged
	// commands).
	for _, t := range s.allTenants() {
		t.Close()
	}
	if s.wal != nil {
		if cerr := s.wal.Close(); err == nil {
			err = cerr
		}
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
// frame or whose jobs alone pass MaxBacklog is too large a request (413;
// nothing was written), a full submit ring or backlog is explicit
// backpressure (429, retryable), everything else keeps the handler's own
// fallback.
func statusOf(err error, fallback int) int {
	if errors.Is(err, wal.ErrWedged) {
		return http.StatusServiceUnavailable
	}
	if errors.Is(err, wal.ErrRecordTooLarge) || errors.Is(err, errOverBacklog) {
		return http.StatusRequestEntityTooLarge
	}
	if errors.Is(err, ErrRingFull) || errors.Is(err, errBacklogFull) {
		return http.StatusTooManyRequests
	}
	return fallback
}

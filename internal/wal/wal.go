// Package wal makes pfaird's tenant state durable: a length-prefixed,
// CRC-checked append log of tenant commands — each command that made
// scheduling decisions followed by one digest of them, which replay
// verifies — plus atomically-replaced snapshots, so a restarted server
// recovers by loading the latest snapshot and replaying the log tail.
// Because every tenant mutation is journaled before it is applied and the
// online executive is deterministic, the durable record prefix fully
// determines the recovered state — including the per-tenant dispatch log
// the `?from` stream replay serves — which is what keeps Theorem 3's
// tardiness bound meaningful across a crash.
//
// # On-disk layout
//
// A data directory holds at most one snapshot, one or more segments, and
// the history files the snapshot's payload names:
//
//	snapshot.json             {"lsn":N,"crc":C,"payload":...}   (atomic rename)
//	wal-<firstLSN>.log        frames: | len u32 | crc32 u32 | payload (JSON) |
//	hist-<snapLSN>-<k>.ndjson immutable sidecar: sealed dispatch history
//
// A frame's payload is json.Marshal of its Record: that is the format's
// definition, and what a record whose strings need an escape is written and
// read with. Every other record — tenant ids and task names in printable
// ASCII — is written by the appender, and read by recovery, the replication
// reader and a follower, through a hand-written codec that produces and
// accepts exactly those bytes without a reflection walk (record_wire.go;
// FuzzRecordMatchesJSON holds it to encoding/json in both directions).
//
// One record is one command — a group of job submits, a batch or a run of
// coalesced singles, is one record holding its jobs — or the digest that
// follows a command. A frame is atomic under its CRC, so a crash keeps all
// of a command or none of it.
//
// Every record carries a monotonically increasing LSN. Recovery reads the
// snapshot (records with LSN ≤ snapshot LSN are superseded by it), then
// scans segments in LSN order, stopping a segment at the first torn or
// corrupt frame: a partial write at the crash point truncates the tail, it
// is never fatal. Compact writes a new snapshot, rolls to a fresh segment
// and deletes the old ones; a crash anywhere in that sequence is safe
// because stale segments only hold records the snapshot already covers.
//
// Sidecars keep a snapshot proportional to new work. State that only ever
// grows at its end — pfaird's per-tenant dispatch history — is written
// once, to a sidecar, and the snapshot payload carries a manifest entry
// (file, length, CRC) instead of the bytes; the log itself never reads a
// payload and knows nothing of manifests. The write order is what makes
// this safe with snapshot.json as the single commit point:
//
//  1. WriteSidecars: each file goes tmp → fsync → rename to a name no
//     installed snapshot refers to (the name carries the LSN the next
//     snapshot will get), then one directory fsync. A crash here leaves
//     unreferenced files; the old snapshot and everything it names are
//     untouched.
//  2. Compact: the snapshot naming the new files replaces the old one
//     atomically. Before the rename the new files are orphans, after it
//     they are durable (step 1 synced them first).
//  3. RemoveSidecarsExcept: files the installed snapshot does not name —
//     orphans of a crash in step 1 or 2, history of deleted tenants — are
//     deleted, beside the stale segments. A crash here leaves garbage the
//     next compaction (every boot runs one) removes.
//
// A referenced sidecar is never rewritten: a name is used by one seal,
// and a retry at the same LSN reproduces the same bytes.
//
// # Durability model
//
// Appending is a two-step pipeline. The enqueue (AppendAsync/AppendBatch)
// assigns the LSN and writes the frame under the log's mutex — cheap, no
// syscall beyond the buffered write. Durability is a separate Wait on the
// returned Commit: the first waiter becomes the fsync leader, releases the
// mutex for the syscall, and its one fsync covers every record written
// before it — all followers queued behind share that sync (leader/follower
// group commit, the etcd/RocksDB write-group shape). With FsyncEvery == 1
// every Wait is durable before it returns; with FsyncEvery > 1 Wait acks
// immediately and the fsync happens once per batch (so a crash can lose up
// to one batch of acknowledged records — never reorder them, and never
// corrupt the surviving prefix), with FsyncMaxDelay bounding how long a
// final partial batch can sit exposed. The first write or sync error
// wedges the log (ErrWedged): all further appends fail, so the in-memory
// state can never silently run ahead of what a recovery could rebuild.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	iofs "io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"desyncpfair/internal/wire"
)

// Record ops. Everything except OpDispatch is a command: replaying the
// command sequence through the (deterministic) service rebuilds the exact
// tenant state, including the dispatch logs. OpDispatch records are
// verification records, not state-bearing ones: a command that made
// decisions is followed by one digest of them (how many, from which seq,
// and a checksum of their wire frames), and recovery checks the decisions
// it regenerates against it and reports any mismatch.
const (
	OpTenantCreate   = "tenant-create"
	OpTenantDelete   = "tenant-delete"
	OpTaskRegister   = "task-register"
	OpTaskUnregister = "task-unregister"
	OpJobSubmit      = "job-submit"
	OpAdvance        = "advance"
	OpDrain          = "drain"
	// OpResize records a capacity change: the tenant's processor count
	// moves to M (Mode "drain" marks a queued shrink that applies once
	// unregisters bring Σwt within the target). Journaled only for applied
	// or queued resizes — rejections leave no state and no record — so
	// replaying the command sequence reproduces the capacity history
	// exactly.
	OpResize   = "resize"
	OpDispatch = "dispatch"
	// OpTerm marks a leadership change: a promoted replica journals one
	// with its new term before accepting writes, making the promotion
	// durable and fencing the log against records from older leaders
	// (terms are non-decreasing in LSN order; AppendReplicated enforces
	// it). Not a command — it mutates no tenant state on replay.
	OpTerm = "term"
)

// Record is one journal entry. Fields beyond LSN/Op/Tenant are op-specific;
// rational times travel as exact strings in internal/rat syntax, matching
// the service's wire format.
//
// encoding/json and these tags define a frame's payload; record_wire.go
// holds the hand-written codec that writes and reads it on the request path.
// A new or renamed field goes into AppendRecord, DecodeRecord and recordKeys
// in the same commit: TestWireCoversEveryField (internal/server) sets every
// field by reflection and fails until the codec itself — not the fallback —
// produces json.Marshal's bytes and reads them back.
type Record struct {
	LSN    uint64 `json:"lsn"`
	Op     string `json:"op"`
	Tenant string `json:"tenant,omitempty"`

	M      int    `json:"m,omitempty"`      // tenant-create / resize: processor count
	Policy string `json:"policy,omitempty"` // tenant-create: policy name
	Mode   string `json:"mode,omitempty"`   // resize: "drain" for a queued shrink

	Name      string `json:"name,omitempty"`      // task name
	E         int64  `json:"e,omitempty"`         // task-register: weight numerator
	P         int64  `json:"p,omitempty"`         // task-register: weight denominator
	At        string `json:"at,omitempty"`        // job-submit / advance: resolved absolute time
	Earliness int64  `json:"earliness,omitempty"` // job-submit: early-release slots

	// A dispatch record is the digest of the decisions one command made:
	// they are seqs DSeq .. DSeq+Count-1 of the tenant's dispatch log, and
	// CRC is the crc32 (IEEE) of their NDJSON wire frames, newlines
	// included — the bytes the dispatch stream serves.
	DSeq  int64  `json:"dseq,omitempty"`
	Count int64  `json:"count,omitempty"`
	CRC   uint32 `json:"crc,omitempty"`
	// The legacy dispatch record (Count absent) names one decision: seq
	// DSeq was subtask Index of task Name, finishing at Finish. Journals
	// written before the digest hold one per decision; replay still
	// verifies them, nothing writes them.
	Index  int64  `json:"index,omitempty"`
	Finish string `json:"finish,omitempty"`

	// Term is the leadership term the record was written under. Terms are
	// non-decreasing in LSN order; a replica refuses records whose term is
	// below the highest it has seen (stale-leader fencing).
	Term uint64 `json:"term,omitempty"`
	// Key is the client-supplied idempotency key of a job-submit. Replay
	// and replication carry it so a recovered or promoted node rebuilds
	// the same dedupe state the leader acked against.
	Key string `json:"key,omitempty"`

	// Jobs makes a job-submit record a group: the jobs of one batch, or of
	// one run of coalesced single submits, in release order, in place of
	// the record's own Name/At/Earliness/Key. The group is one frame under
	// one CRC, so recovery and followers see all of it or none of it. A
	// lone submit stays the flat record; journals written before the field
	// hold a group as one flat record per job, and still replay.
	Jobs []Job `json:"jobs,omitempty"`
}

// Job is one job of a job-submit group: what the flat record says of its
// single job in Name, At, Earliness and Key.
type Job struct {
	Name      string `json:"name"`
	At        string `json:"at,omitempty"`
	Earliness int64  `json:"earliness,omitempty"`
	Key       string `json:"key,omitempty"`
}

// Weight is how many flat records r stands for: its jobs for a job-submit
// group, 1 for anything else. SnapshotEvery and the service's command
// count are in that unit — they bound replay work and resident history,
// which grow with jobs, not with frames — so neither moves when a group
// becomes one record.
func (r *Record) Weight() int { return max(1, len(r.Jobs)) }

// IsCommand reports whether the record mutates state on replay (everything
// except dispatch verification records and term markers).
func (r Record) IsCommand() bool { return r.Op != OpDispatch && r.Op != OpTerm }

// ErrWedged is wrapped by every append after the log's first write or sync
// failure: the log refuses further mutations so recovered state can never
// diverge from what was applied in memory.
var ErrWedged = errors.New("wal: log failed; further appends refused")

// ErrRecordTooLarge is wrapped by an append whose record does not fit one
// frame. Nothing was written and the log is not wedged: the caller refuses
// the command the record stood for.
var ErrRecordTooLarge = errors.New("wal: record exceeds the frame payload bound")

// ErrStaleTerm is wrapped by AppendReplicated when a record carries a term
// below the log's current one: the sender is a deposed leader and must not
// extend this log.
var ErrStaleTerm = errors.New("wal: record term below the log's term; stale leader fenced")

// ErrCompacted is returned by a Reader whose cursor fell below the
// snapshot horizon: those records were folded into the snapshot and no
// longer exist as log frames. The caller re-bootstraps from the snapshot.
var ErrCompacted = errors.New("wal: requested LSN is below the snapshot horizon")

const (
	snapshotName = "snapshot.json"
	snapshotTmp  = "snapshot.tmp"
	segPrefix    = "wal-"
	segSuffix    = ".log"
	frameHeader  = 8       // u32 length + u32 crc
	maxPayload   = 1 << 20 // sanity bound on one record
	maxLSN       = 1 << 62 // LSNs beyond this are treated as corruption
)

// Commit is a durability ticket: AppendAsync and AppendBatch return one,
// and Wait blocks until the identified record — and, by write ordering,
// everything before it — is covered by an fsync per the log's policy. The
// zero Commit waits for nothing, so callers without a journal can pass it
// through unchanged.
type Commit struct {
	LSN uint64
}

// Timer is the handle Options.AfterFunc returns; *time.Timer satisfies it.
type Timer interface {
	Stop() bool
}

// Options configures Open.
type Options struct {
	// FS is the filesystem the log writes through; nil selects the real
	// one. Tests inject internal/faultfs here.
	FS FS
	// FsyncEvery group-commits: fsync once per this many appended records.
	// Values ≤ 1 sync every append (and make Wait a durability barrier).
	FsyncEvery int
	// SnapshotEvery makes ShouldCompact report true once records of this
	// total Weight — jobs, other commands and digests — have been appended
	// since the last snapshot. 0 disables the hint (Compact can still be
	// called explicitly).
	SnapshotEvery int
	// FsyncMaxDelay bounds how long a written record may sit unsynced when
	// the FsyncEvery threshold has not been reached: a timer armed by the
	// first record of each unsynced batch forces the group fsync after
	// this delay, so a final partial batch no longer waits forever when
	// traffic stops. 0 disables the timer.
	FsyncMaxDelay time.Duration
	// AfterFunc schedules the FsyncMaxDelay callback; nil selects
	// time.AfterFunc. Tests inject a manually-fired timer so the
	// idle-flush path needs no sleeps.
	AfterFunc func(d time.Duration, f func()) Timer
	// Now supplies timestamps for Timings measurements; nil selects
	// time.Now. Tests inject a fake clock so the observed durations are
	// exact. Ignored when Timings is nil — an uninstrumented log never
	// reads the clock on the append path.
	Now func() time.Time
	// Timings, when non-nil, receives the journal's write-path latencies.
	Timings Timings
}

// Timings observes the journal's write-path latencies. Implementations
// must be safe for concurrent use and fast: the callbacks run under the
// log's lock, on the append hot path.
type Timings interface {
	// ObserveAppend sees the duration of one frame write (one append, or
	// one whole batch).
	ObserveAppend(d time.Duration)
	// ObserveFsync sees the duration of one fsync syscall.
	ObserveFsync(d time.Duration)
	// ObserveLogToFsync sees, for each record, the latency from its
	// append landing in the log to the group-commit fsync that made it
	// durable — the window in which an acknowledged record could still be
	// lost to a crash.
	ObserveLogToFsync(d time.Duration)
}

// Stats are the log's counters, exposed by pfaird's /metrics. All fields
// are monotonic except Unsynced and Wedged, which are point-in-time.
type Stats struct {
	Appends      uint64 // records appended
	Fsyncs       uint64 // group-commit syncs issued
	AppendErrors uint64 // appends refused (including post-wedge)
	Snapshots    uint64 // successful Compact calls
	Unsynced     uint64 // records written but not yet covered by an fsync
	Wedged       bool
}

// Recovery is what Open found on disk: the snapshot payload (nil if none)
// and the valid record tail to replay over it, in LSN order.
type Recovery struct {
	Snapshot    []byte
	SnapshotLSN uint64
	Records     []Record
	// Term is the highest leadership term found on disk (snapshot or
	// records); the reopened log continues under it.
	Term uint64
	// TruncatedBytes counts bytes discarded at torn or corrupt segment
	// tails — expected after a crash, reported for observability.
	TruncatedBytes int64
	Segments       int
}

// pendingStamp remembers when an unsynced record's write landed, so the
// group-commit fsync can report its log→fsync latency. Stamps are kept in
// LSN order; the leader drains exactly the prefix its sync covered.
type pendingStamp struct {
	lsn uint64
	at  time.Time
}

// Log is an append-only record journal over one data directory. All
// methods are safe for concurrent use.
type Log struct {
	dir        string
	fs         FS
	fsyncEvery int
	snapEvery  int
	maxDelay   time.Duration
	afterFunc  func(d time.Duration, f func()) Timer
	now        func() time.Time
	timings    Timings

	mu sync.Mutex
	// commit signals durability progress: leaderSyncLocked broadcasts when
	// a sync completes (or wedges), waking followers blocked in
	// syncToLocked.
	commit     *sync.Cond
	f          File
	seg        string // active segment file name
	nextLSN    uint64
	writtenLSN uint64 // highest LSN whose frame write succeeded
	durableLSN uint64 // highest LSN covered by a completed fsync
	snapLSN    uint64 // highest LSN covered by the on-disk snapshot
	term       uint64 // current leadership term, stamped into appends
	syncing    bool   // a leader is inside the fsync syscall, mutex dropped
	sinceSnap  int
	// The idle-flush timer belongs to one unsynced batch: armed by the
	// batch's first record, stopped by the sync that leaves nothing unsynced.
	// timerGen names the timer armed last, so a callback that was already
	// running when its timer was stopped finds itself superseded.
	timerArmed bool
	timerGen   uint64
	timer      Timer
	// durableCh is what NextDurable hands out: nil until somebody asks,
	// closed and forgotten when durableLSN advances.
	durableCh chan struct{}
	pendingAt []pendingStamp // empty (and untouched) when timings is nil
	wedged    error
	closed    bool
	st        Stats
}

// encodeFrame appends one framed record to fb: 8-byte header reserved
// first, JSON payload encoded in place — by the hand-written codec
// (AppendRecord), or by json.Marshal, whose bytes those are, for a record
// the codec declines — then length and CRC backfilled. fb is a pooled
// buffer, so the append hot path allocates nothing per record. On error fb
// keeps its previous length.
func encodeFrame(fb *wire.Buf, r *Record) error {
	start := len(fb.B)
	var header [frameHeader]byte
	b, ok := AppendRecord(append(fb.B, header[:]...), r)
	if !ok {
		j, err := json.Marshal(r)
		if err != nil {
			return err
		}
		b = append(b, j...)
	}
	payload := b[start+frameHeader:]
	if len(payload) > maxPayload {
		return fmt.Errorf("%w: %d bytes, the bound is %d", ErrRecordTooLarge, len(payload), maxPayload)
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.ChecksumIEEE(payload))
	fb.B = b
	return nil
}

// Open recovers whatever the directory holds (creating it if needed) and
// returns a log ready to append, plus the recovered snapshot and record
// tail. Torn or corrupt segment tails are truncated, never fatal; only a
// corrupt snapshot — which is written atomically and so indicates real
// damage rather than a crash — or an environmental error fails Open.
func Open(dir string, opts Options) (*Log, *Recovery, error) {
	fs := opts.FS
	if fs == nil {
		fs = OSFS{}
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, nil, err
	}
	rec := &Recovery{}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	have := map[string]bool{}
	var segs []string
	for _, n := range names {
		have[n] = true
		if strings.HasPrefix(n, segPrefix) && strings.HasSuffix(n, segSuffix) {
			segs = append(segs, n)
		}
	}
	sort.Strings(segs) // zero-padded hex first-LSN names sort in LSN order

	if have[snapshotName] {
		payload, lsn, term, err := readSnapshot(fs, filepath.Join(dir, snapshotName))
		if err != nil {
			return nil, nil, err
		}
		rec.Snapshot = payload
		rec.SnapshotLSN = lsn
		rec.Term = term
	}

	lastLSN, sinceSnap := rec.SnapshotLSN, 0
	for _, name := range segs {
		recs, trunc, err := readSegment(fs, filepath.Join(dir, name))
		if err != nil {
			return nil, nil, err
		}
		rec.TruncatedBytes += trunc
		rec.Segments++
		for _, r := range recs {
			if r.LSN <= lastLSN {
				continue // superseded by the snapshot, or a stale duplicate
			}
			rec.Records = append(rec.Records, r)
			sinceSnap += r.Weight()
			lastLSN = r.LSN
			if r.Term > rec.Term {
				rec.Term = r.Term
			}
		}
	}

	l := &Log{
		dir:        dir,
		fs:         fs,
		fsyncEvery: opts.FsyncEvery,
		snapEvery:  opts.SnapshotEvery,
		maxDelay:   opts.FsyncMaxDelay,
		afterFunc:  opts.AfterFunc,
		now:        opts.Now,
		timings:    opts.Timings,
		nextLSN:    lastLSN + 1,
		writtenLSN: lastLSN,
		durableLSN: lastLSN,
		snapLSN:    rec.SnapshotLSN,
		term:       rec.Term,
		sinceSnap:  sinceSnap,
	}
	l.commit = sync.NewCond(&l.mu)
	if l.now == nil {
		l.now = time.Now
	}
	if l.afterFunc == nil {
		l.afterFunc = func(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }
	}
	if l.fsyncEvery < 1 {
		l.fsyncEvery = 1
	}
	if err := l.openSegment(); err != nil {
		return nil, nil, err
	}
	return l, rec, nil
}

// openSegment starts a fresh active segment named by the next LSN. Called
// with l.mu held (or before the log is shared), with no unsynced records
// and no sync in flight.
func (l *Log) openSegment() error {
	name := fmt.Sprintf("%s%016x%s", segPrefix, l.nextLSN, segSuffix)
	f, err := l.fs.Create(filepath.Join(l.dir, name))
	if err != nil {
		return err
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	if l.f != nil {
		l.f.Close()
	}
	l.f = f
	l.seg = name
	return nil
}

// unsyncedLocked is the count of written-but-unsynced records.
func (l *Log) unsyncedLocked() int { return int(l.writtenLSN - l.durableLSN) }

// appendableLocked refuses appends on a wedged or closed log, counting the
// refusal.
func (l *Log) appendableLocked() error {
	if l.wedged != nil {
		l.st.AppendErrors++
		return l.wedged
	}
	if l.closed {
		l.st.AppendErrors++
		return fmt.Errorf("wal: log closed")
	}
	return nil
}

// Append journals one record, assigning its LSN, and applies the log's
// durability policy before returning (the PR-3 behavior: with FsyncEvery
// == 1 the record is fsync-covered on return; above that the fsync is
// batched). It is AppendAsync + Wait — callers that can ack later use
// those directly to overlap work with the fsync. Any I/O failure wedges
// the log: the error (wrapping ErrWedged) is returned now and by every
// later append.
func (l *Log) Append(r Record) (uint64, error) {
	c, err := l.AppendAsync(r)
	if err != nil {
		return 0, err
	}
	if err := l.Wait(c); err != nil {
		l.mu.Lock()
		l.st.AppendErrors++
		l.mu.Unlock()
		return 0, err
	}
	return c.LSN, nil
}

// AppendAsync journals one record without waiting for durability: the
// frame is encoded and written to the active segment under the log's
// mutex, and the returned Commit is handed to Wait when the caller is
// ready to ack. Splitting the enqueue from the wait is what lets the
// server release the tenant lock before the fsync.
func (l *Log) AppendAsync(r Record) (Commit, error) {
	fb := wire.GetBuf()
	defer fb.Put()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.appendableLocked(); err != nil {
		return Commit{}, err
	}
	r.LSN = l.nextLSN
	r.Term = l.term
	if err := encodeFrame(fb, &r); err != nil {
		return Commit{}, err
	}
	if err := l.writeLocked(fb, 1, r.Weight()); err != nil {
		return Commit{}, err
	}
	return Commit{LSN: r.LSN}, nil
}

// AppendReplicated journals a record shipped from a leader, preserving its
// LSN and term instead of assigning new ones. The record must exactly
// continue the local log (LSN == next), and its term must not regress —
// ErrStaleTerm fences appends from a deposed leader after a promotion has
// raised the local term. On success the log's term advances to the
// record's.
func (l *Log) AppendReplicated(r Record) (Commit, error) {
	fb := wire.GetBuf()
	defer fb.Put()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.appendableLocked(); err != nil {
		return Commit{}, err
	}
	if r.LSN != l.nextLSN {
		l.st.AppendErrors++
		return Commit{}, fmt.Errorf("wal: replicated record LSN %d does not continue the log (next %d)", r.LSN, l.nextLSN)
	}
	if r.Term < l.term {
		l.st.AppendErrors++
		return Commit{}, fmt.Errorf("%w: record term %d < log term %d", ErrStaleTerm, r.Term, l.term)
	}
	if err := encodeFrame(fb, &r); err != nil {
		return Commit{}, err
	}
	if err := l.writeLocked(fb, 1, r.Weight()); err != nil {
		return Commit{}, err
	}
	l.term = r.Term
	return Commit{LSN: r.LSN}, nil
}

// AppendBatch journals records as one contiguous frame group: LSNs are
// assigned in order (written back into rs), all frames are encoded into
// one buffer and land in a single segment write under one mutex
// acquisition. The returned Commit covers the last record, so one Wait
// acks the whole group after one fsync. An empty batch is a no-op.
//
// The group is not crash-atomic: a torn write can leave a prefix of the
// batch on disk, and a batch recovered in part refuses its own retry. That
// is why pfaird writes a submit group as one record (Record.Jobs), not
// through here; the callers left are the repository benchmark's per-layer
// pass and tests that build a journal of per-job groups (ROADMAP 10c).
func (l *Log) AppendBatch(rs []Record) (Commit, error) {
	if len(rs) == 0 {
		return Commit{}, nil
	}
	fb := wire.GetBuf()
	defer fb.Put()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.appendableLocked(); err != nil {
		return Commit{}, err
	}
	weight := 0
	for i := range rs {
		rs[i].LSN = l.nextLSN + uint64(i)
		rs[i].Term = l.term
		if err := encodeFrame(fb, &rs[i]); err != nil {
			return Commit{}, err
		}
		weight += rs[i].Weight()
	}
	if err := l.writeLocked(fb, len(rs), weight); err != nil {
		return Commit{}, err
	}
	return Commit{LSN: l.writtenLSN}, nil
}

// writeLocked writes fb's n encoded frames (LSNs nextLSN..nextLSN+n-1) to
// the active segment and publishes them as written, arming the idle-flush
// timer. The frames count toward FsyncEvery (writtenLSN) and the appends
// statistic, their records' total weight toward SnapshotEvery. Called with
// l.mu held after appendableLocked and encoding.
func (l *Log) writeLocked(fb *wire.Buf, n, weight int) error {
	var t0 time.Time
	if l.timings != nil {
		t0 = l.now()
	}
	if _, err := l.f.Write(fb.B); err != nil {
		l.wedge(err)
		l.st.AppendErrors++
		return l.wedged
	}
	if l.timings != nil {
		t1 := l.now()
		l.timings.ObserveAppend(t1.Sub(t0))
		for i := 0; i < n; i++ {
			l.pendingAt = append(l.pendingAt, pendingStamp{lsn: l.nextLSN + uint64(i), at: t1})
		}
	}
	l.nextLSN += uint64(n)
	l.writtenLSN = l.nextLSN - 1
	l.st.Appends += uint64(n)
	l.sinceSnap += weight
	if l.maxDelay > 0 && !l.timerArmed {
		l.timerArmed = true
		l.timerGen++
		gen := l.timerGen
		l.timer = l.afterFunc(l.maxDelay, func() { l.flushTimerFired(gen) })
	}
	return nil
}

// Wait blocks until c's record is covered per the log's policy:
//
//   - FsyncEvery == 1 (durable acks): wait until an fsync covers c. The
//     first waiter becomes the leader — it issues one fsync for every
//     record written so far, with the mutex released during the syscall
//     so appends keep flowing — and every waiter queued behind shares
//     that sync.
//   - FsyncEvery > 1: acks are group-committed; Wait returns immediately
//     unless the unsynced batch has reached the threshold, in which case
//     this waiter drives the sync (the PR-3 inline fsync, moved off the
//     append path) or follows the one in flight — and asks the threshold
//     again afterwards: a sync that left only the few records written
//     behind its back is not followed by a second one for those. Every ack
//     returns with fewer than FsyncEvery records unsynced, so a crash can
//     still lose up to one batch of acknowledged records, exactly as
//     before.
//
// The zero Commit returns nil immediately.
func (l *Log) Wait(c Commit) error {
	if c.LSN == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.fsyncEvery == 1 {
		return l.syncToLocked(c.LSN)
	}
	return l.syncUntilLocked(func() bool { return l.unsyncedLocked() < l.fsyncEvery })
}

// syncToLocked blocks until durableLSN ≥ target.
func (l *Log) syncToLocked(target uint64) error {
	return l.syncUntilLocked(func() bool { return l.durableLSN >= target })
}

// syncUntilLocked blocks until done holds, becoming the fsync leader if
// nobody is syncing, otherwise following the in-flight sync — and asking
// done again after it, since that sync may cover only an earlier prefix.
// Called with l.mu held, which is also how done is called; the mutex is
// released while following and while leading the syscall.
func (l *Log) syncUntilLocked(done func() bool) error {
	for !done() {
		if l.wedged != nil {
			return l.wedged
		}
		if l.syncing {
			l.commit.Wait()
			continue
		}
		l.leaderSyncLocked()
	}
	return nil
}

// leaderSyncLocked performs one group-commit fsync as the leader: it
// captures the written high-water mark, releases l.mu for the syscall so
// appends and new waiters keep flowing, then reacquires it to publish
// durability and wake the followers. Called with l.mu held, !l.syncing,
// not wedged, and durableLSN < writtenLSN.
func (l *Log) leaderSyncLocked() {
	end := l.writtenLSN
	f := l.f
	l.syncing = true
	var s0 time.Time
	if l.timings != nil {
		s0 = l.now()
	}
	l.mu.Unlock()
	err := f.Sync()
	l.mu.Lock()
	l.syncing = false
	if err != nil {
		l.wedge(err)
	} else {
		if end > l.durableLSN {
			l.durableLSN = end
			l.wakeDurableLocked()
		}
		if l.durableLSN == l.writtenLSN {
			l.disarmTimerLocked() // nothing left for it to flush: the next append arms a fresh one
		}
		l.st.Fsyncs++
		if l.timings != nil {
			s1 := l.now()
			l.timings.ObserveFsync(s1.Sub(s0))
			i := 0
			for ; i < len(l.pendingAt) && l.pendingAt[i].lsn <= end; i++ {
				l.timings.ObserveLogToFsync(s1.Sub(l.pendingAt[i].at))
			}
			l.pendingAt = l.pendingAt[:copy(l.pendingAt, l.pendingAt[i:])]
		}
	}
	l.commit.Broadcast()
}

// flushTimerFired is the FsyncMaxDelay callback of the timer armed as gen:
// it syncs whatever is still unsynced. The next append arms a fresh timer,
// so each unsynced batch gets one bounded deadline. A timer whose batch a
// threshold sync, an explicit Sync or a durable-ack leader already covered
// was stopped then; if its callback had started by that time it finds the
// timer disarmed, or a later one armed, and leaves both alone.
func (l *Log) flushTimerFired(gen uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.timerArmed || gen != l.timerGen {
		return
	}
	l.timerArmed = false
	if l.closed || l.wedged != nil || l.unsyncedLocked() == 0 {
		return
	}
	_ = l.syncToLocked(l.writtenLSN) // a failure wedges the log; nothing more to report here
}

// disarmTimerLocked stops the idle-flush timer, if one is armed.
func (l *Log) disarmTimerLocked() {
	if l.timerArmed {
		l.timer.Stop() // false = its callback is running: flushTimerFired finds timerArmed cleared
		l.timerArmed = false
	}
}

// NextDurable returns a channel that is closed the next time DurableLSN
// advances — or the log wedges, or is closed, after either of which it will
// not advance again. It is how a reader tails the log without polling it:
// take the channel, read (a Reader serves up to the durable horizon as it
// stands when asked), and only if that read comes back empty wait on the
// channel. In that order an advance between the read and the wait closes a
// channel already held, so it cannot be missed. DurableLSN advances once per
// fsync, never per append, and no channel exists while nobody has asked for
// one. A wedged log hands out a channel only Close closes; a closed log, one
// closed already.
func (l *Log) NextDurable() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return closedChan
	}
	if l.durableCh == nil {
		l.durableCh = make(chan struct{})
	}
	return l.durableCh
}

var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// wakeDurableLocked closes the channel NextDurable handed out, if any.
func (l *Log) wakeDurableLocked() {
	if l.durableCh != nil {
		close(l.durableCh)
		l.durableCh = nil
	}
}

func (l *Log) wedge(err error) {
	if l.wedged == nil {
		l.wedged = fmt.Errorf("%w: %v", ErrWedged, err)
		l.wakeDurableLocked()
	}
	if l.commit != nil {
		l.commit.Broadcast()
	}
}

// Sync forces out any unsynced appends (the partial group-commit batch).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wedged != nil {
		return l.wedged
	}
	return l.syncToLocked(l.writtenLSN)
}

// ShouldCompact hints that enough accumulated since the last snapshot —
// SnapshotEvery in record weight — to be worth folding into a new one.
func (l *Log) ShouldCompact() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapEvery > 0 && l.sinceSnap >= l.snapEvery && l.wedged == nil && !l.closed
}

// Compact atomically installs payload as the new snapshot, covering every
// record appended so far, then rolls to a fresh segment and removes the
// stale ones. The caller must guarantee payload reflects exactly the state
// after the last appended record (pfaird quiesces mutations around it).
func (l *Log) Compact(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wedged != nil {
		return l.wedged
	}
	if l.closed {
		return fmt.Errorf("wal: log closed")
	}
	// Everything written must be durable — and no leader mid-syscall on
	// the segment we are about to roll — before the snapshot claims to
	// cover it. The loop re-checks because both waits release the mutex.
	for {
		if err := l.syncToLocked(l.writtenLSN); err != nil {
			return err
		}
		if !l.syncing && l.durableLSN == l.writtenLSN {
			break
		}
		l.commit.Wait()
	}
	lsn := l.nextLSN - 1
	if err := l.writeSnapshotLocked(payload, lsn, l.term); err != nil {
		return err
	}
	// The snapshot is durable; roll the segment. Failures from here leave
	// stale segments behind, which recovery skips by LSN — never unsafe.
	if err := l.openSegment(); err != nil {
		return err
	}
	l.removeStaleSegmentsLocked()
	l.snapLSN = lsn
	l.sinceSnap = 0
	l.st.Snapshots++
	return nil
}

// writeSnapshotLocked durably installs payload as the directory's snapshot
// at lsn/term via the write-tmp / fsync / rename / fsync-dir sequence.
// Called with l.mu held.
func (l *Log) writeSnapshotLocked(payload []byte, lsn, term uint64) error {
	head, err := snapshotEnvelope(payload, lsn, term)
	if err != nil {
		return err
	}
	if err := l.installFile(snapshotTmp, snapshotName, head, payload, []byte{'}'}); err != nil {
		return err
	}
	return l.fs.SyncDir(l.dir)
}

// snapshotEnvelope renders everything of a snapshot file that precedes the
// payload: the file is this head, the payload verbatim, and a closing
// brace. For a payload in json.Marshal's compact form — the only form
// whose CRC survives the round trip through readSnapshot — the bytes equal
// json.Marshal(snapshotFile{...}), without marshaling re-scanning and
// re-copying the payload, which is the bulk of the file.
func snapshotEnvelope(payload []byte, lsn, term uint64) ([]byte, error) {
	if !json.Valid(payload) {
		return nil, fmt.Errorf("wal: snapshot payload is not valid JSON")
	}
	b := append(make([]byte, 0, 96), `{"lsn":`...)
	b = strconv.AppendUint(b, lsn, 10)
	if term != 0 {
		b = append(b, `,"term":`...)
		b = strconv.AppendUint(b, term, 10)
	}
	b = append(b, `,"crc":`...)
	b = strconv.AppendUint(b, uint64(crc32.ChecksumIEEE(payload)), 10)
	return append(b, `,"payload":`...), nil
}

// installFile durably writes chunks to name through tmp: create, write,
// fsync, close, rename. The rename is not durable until the caller syncs
// the directory. On failure tmp is removed (best effort).
func (l *Log) installFile(tmp, name string, chunks ...[]byte) error {
	tmp = filepath.Join(l.dir, tmp)
	f, err := l.fs.Create(tmp)
	if err != nil {
		return err
	}
	for _, c := range chunks {
		if _, err = f.Write(c); err != nil {
			break
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = l.fs.Rename(tmp, filepath.Join(l.dir, name))
	}
	if err != nil {
		l.fs.Remove(tmp)
	}
	return err
}

// removeStaleSegmentsLocked deletes every segment other than the active
// one; best-effort, since recovery skips stale records by LSN anyway.
func (l *Log) removeStaleSegmentsLocked() {
	if names, err := l.fs.ReadDir(l.dir); err == nil {
		for _, n := range names {
			if strings.HasPrefix(n, segPrefix) && strings.HasSuffix(n, segSuffix) && n != l.seg {
				l.fs.Remove(filepath.Join(l.dir, n))
			}
		}
	}
}

// InstallSnapshot primes the log with a snapshot shipped from a leader:
// the payload becomes the on-disk snapshot at lsn/term and the log
// restarts at lsn+1, discarding any local segments (all of which must be
// at or below lsn — installing a snapshot never rewinds a log). A
// follower bootstraps by opening an empty directory, installing the
// leader's snapshot, and reopening through the normal recovery path.
func (l *Log) InstallSnapshot(payload []byte, lsn, term uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wedged != nil {
		return l.wedged
	}
	if l.closed {
		return fmt.Errorf("wal: log closed")
	}
	if l.writtenLSN > lsn {
		return fmt.Errorf("wal: refusing snapshot at LSN %d behind the local log at %d", lsn, l.writtenLSN)
	}
	if term < l.term {
		return fmt.Errorf("%w: snapshot term %d < log term %d", ErrStaleTerm, term, l.term)
	}
	if err := l.writeSnapshotLocked(payload, lsn, term); err != nil {
		return err
	}
	l.nextLSN = lsn + 1
	l.writtenLSN = lsn
	l.durableLSN = lsn
	l.wakeDurableLocked()
	l.snapLSN = lsn
	l.term = term
	l.sinceSnap = 0
	if err := l.openSegment(); err != nil {
		return err
	}
	l.removeStaleSegmentsLocked()
	return nil
}

// Snapshot reads the current on-disk snapshot for serving to a
// bootstrapping follower. A directory without one returns a nil payload
// at LSN 0.
func (l *Log) Snapshot() (payload []byte, lsn, term uint64, err error) {
	l.mu.Lock()
	fs, path := l.fs, filepath.Join(l.dir, snapshotName)
	l.mu.Unlock()
	payload, lsn, term, err = readSnapshot(fs, path)
	if err != nil && errors.Is(err, iofs.ErrNotExist) {
		return nil, 0, 0, nil
	}
	return payload, lsn, term, err
}

// SetTerm raises the log's leadership term; later appends are stamped
// with it. Lowering the term is refused — terms only move forward.
func (l *Log) SetTerm(term uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if term < l.term {
		return fmt.Errorf("wal: cannot lower term %d to %d", l.term, term)
	}
	l.term = term
	return nil
}

// Term returns the log's current leadership term.
func (l *Log) Term() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.term
}

// DurableLSN is the highest LSN covered by a completed fsync — the
// replication horizon: a log reader never serves beyond it.
func (l *Log) DurableLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durableLSN
}

// WrittenLSN is the highest LSN whose frame write succeeded.
func (l *Log) WrittenLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writtenLSN
}

// SnapshotLSN is the highest LSN folded into the on-disk snapshot.
func (l *Log) SnapshotLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapLSN
}

// Close flushes the group-commit batch and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.wakeDurableLocked()
	l.disarmTimerLocked()
	err := func() error {
		if l.wedged != nil {
			return nil // already failed; nothing more to preserve
		}
		return l.syncToLocked(l.writtenLSN)
	}()
	// A leader may still be inside its syscall (it captured l.f before
	// releasing the mutex); wait it out so closing the file cannot race
	// the fsync.
	for l.syncing {
		l.commit.Wait()
	}
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	return err
}

// Fail permanently wedges the log. Callers use it when they discover,
// after a successful append, that the corresponding state change did not
// fully apply: refusing further appends keeps the journal from diverging
// from memory.
func (l *Log) Fail(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.wedge(err)
}

// Wedged reports whether the log has failed and refuses appends.
func (l *Log) Wedged() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.wedged != nil
}

// Stats returns a copy of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.st
	st.Unsynced = uint64(l.unsyncedLocked())
	st.Wedged = l.wedged != nil
	return st
}

type snapshotFile struct {
	LSN     uint64          `json:"lsn"`
	Term    uint64          `json:"term,omitempty"`
	CRC     uint32          `json:"crc"`
	Payload json.RawMessage `json:"payload"`
}

func readSnapshot(fs FS, path string) ([]byte, uint64, uint64, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, 0, 0, err
	}
	var sf snapshotFile
	if err := json.Unmarshal(data, &sf); err != nil {
		return nil, 0, 0, fmt.Errorf("wal: snapshot corrupt: %v", err)
	}
	if crc32.ChecksumIEEE(sf.Payload) != sf.CRC {
		return nil, 0, 0, fmt.Errorf("wal: snapshot CRC mismatch")
	}
	return sf.Payload, sf.LSN, sf.Term, nil
}

// readSegment decodes frames until the end of the file or the first torn
// or corrupt one; everything after that point is returned as the truncated
// byte count. Arbitrary bytes never produce an error (FuzzWALReplay pins
// this), only environmental failures do.
func readSegment(fs FS, path string) ([]Record, int64, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, 0, err
	}
	var out []Record
	off := 0
	for {
		rest := len(data) - off
		if rest == 0 {
			return out, 0, nil
		}
		if rest < frameHeader {
			return out, int64(rest), nil
		}
		n := binary.LittleEndian.Uint32(data[off:])
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if n == 0 || n > maxPayload || rest-frameHeader < int(n) {
			return out, int64(rest), nil
		}
		payload := data[off+frameHeader : off+frameHeader+int(n)]
		if crc32.ChecksumIEEE(payload) != crc {
			return out, int64(rest), nil
		}
		var r Record
		if UnmarshalRecord(payload, &r) != nil || r.LSN >= maxLSN {
			return out, int64(rest), nil
		}
		out = append(out, r)
		off += frameHeader + int(n)
	}
}

package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"strconv"
	"time"

	"desyncpfair/internal/wal"
	"desyncpfair/internal/wire"
)

// Replication endpoints and the role state machine.
//
// pfaird replicates by log shipping: a follower bootstraps from the
// leader's snapshot (GET /v1/replication/snapshot), then tails the
// journal (GET /v1/replication/log?from=<lsn>&follow=true) and feeds each
// record through ApplyReplicated — append-to-local-journal first, then
// the same applyRecord dispatcher crash recovery uses. A follower is
// therefore always a legal crash-recovery state: its journal is a prefix
// of the leader's (capped at the leader's *durable* LSN — the log reader
// never serves an unsynced suffix), and its in-memory state is exactly
// what Open would rebuild from that prefix.
//
// Promotion reuses the same machinery in the other direction: the
// follower seals its tail stream, bumps the journal term, appends a
// durable OpTerm marker, and flips writable. Terms are monotonic in LSN
// order; AppendReplicated rejects records below the local term, so a
// deposed leader that comes back and tries to ship its divergent suffix
// is fenced with ErrStaleTerm instead of corrupting the new timeline.

// Role is a node's position in the replication topology. The zero value
// is RoleLeader so New() keeps single-node semantics: a standalone pfaird
// is a leader of one.
type Role int32

const (
	RoleLeader Role = iota
	RoleFollower
	RoleCandidate
)

func (r Role) String() string {
	switch r {
	case RoleLeader:
		return "leader"
	case RoleFollower:
		return "follower"
	case RoleCandidate:
		return "candidate"
	default:
		return fmt.Sprintf("role(%d)", int32(r))
	}
}

// Role returns the node's current replication role.
func (s *Server) Role() Role { return Role(s.role.Load()) }

// AppliedLSN is the highest journal LSN reflected in served state: on a
// leader everything written is applied; on a follower it trails the
// replication tailer.
func (s *Server) AppliedLSN() uint64 {
	if s.Role() == RoleLeader {
		if s.wal == nil {
			return 0
		}
		return s.wal.WrittenLSN()
	}
	return s.appliedLSN.Load()
}

// SetReplicationLag records how many LSNs this follower trails its
// leader's durable tip (-1 = unknown). Maintained by the cluster tailer;
// surfaces in /healthz and as pfaird_replication_lag_lsn.
func (s *Server) SetReplicationLag(lag int64) { s.replLagLSN.Store(lag) }

// SetReplicationError records (or, with "", clears) a fault of the
// replication transport — the stream broke, the leader fenced us, our
// cursor fell below its snapshot. A non-empty error turns /healthz
// "degraded" without stopping reads. A record that did not apply cleanly
// is not one of these: ApplyReplicated counts it, and nothing clears a
// count.
func (s *Server) SetReplicationError(msg string) {
	if msg == "" {
		s.replErr.Store(nil)
		return
	}
	s.replErr.Store(&msg)
}

// ReplicationError returns the recorded replication fault, if any.
func (s *Server) ReplicationError() string {
	if p := s.replErr.Load(); p != nil {
		return *p
	}
	return ""
}

// SetCaughtUp marks a bootstrapping follower as caught up to its
// leader's durable tip; /healthz flips from 503 "bootstrapping" to 200
// and routers may start serving reads from it. It returns how long
// bootstrap took — from Open, which the caller's StartFollower follows at
// once — by the server's clock: pfaird_replication_bootstrap_seconds from
// then on. On a node that was not bootstrapping it does nothing and
// returns 0.
func (s *Server) SetCaughtUp() time.Duration {
	if !s.bootstrapping.CompareAndSwap(true, false) {
		return 0
	}
	took := s.obs.clock.Now().Sub(s.bootstrapFrom)
	s.bootstrapNs.Store(int64(took))
	return took
}

// SetPromoteHook installs a callback Promote (and POST
// /v1/cluster/promote) runs first — the cluster follower uses it to seal
// its tail stream so no replicated append can race the term bump.
func (s *Server) SetPromoteHook(fn func() error) { s.promoteHook.Store(&fn) }

// MaybeCompact folds the journal into a snapshot when one is due. The
// replication tailer calls it between applied records — followers never
// run the handler path that normally triggers compaction.
func (s *Server) MaybeCompact() { s.maybeCompact() }

// ApplyReplicated feeds one leader-journaled record into a follower:
// journal first (AppendReplicated preserves the record's LSN and term,
// rejects discontinuities and stale terms), then apply through the same
// dispatcher recovery replays with. Journal errors are fatal to the
// stream — the local log refused the record, so applying it would fork
// state from disk. Apply errors are counted (replApplyErrors,
// replMismatches: /metrics, the /healthz body) and degrade /healthz for
// good but do not stop replication, mirroring recovery's
// counted-never-fatal contract. Called from the single tailer goroutine
// only.
func (s *Server) ApplyReplicated(r wal.Record) error {
	if s.Role() != RoleFollower {
		return fmt.Errorf("server: %s does not accept replicated records", s.Role())
	}
	if s.wal == nil {
		return fmt.Errorf("server: replication needs a durable server")
	}
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	if _, err := s.wal.AppendReplicated(r); err != nil {
		return err
	}
	if !s.applyRecord(r) {
		if r.Op == wal.OpDispatch {
			s.replMismatches.Add(1)
		} else {
			s.replApplyErrors.Add(1)
		}
	}
	s.appliedLSN.Store(r.LSN)
	return nil
}

// Promote flips a follower writable: raise the journal term, append a
// durable OpTerm marker (the fence every stale-leader append dies on),
// re-arm the journal hooks, and become leader. Idempotent on a leader.
// The caller must stop feeding ApplyReplicated first (POST
// /v1/cluster/promote runs the promote hook, which seals the tailer).
func (s *Server) Promote() error {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if s.Role() == RoleLeader {
		return nil
	}
	if s.wal == nil {
		return fmt.Errorf("server: cannot promote a non-durable server")
	}
	s.role.Store(int32(RoleCandidate))
	term := s.wal.Term() + 1
	if err := s.wal.SetTerm(term); err != nil {
		s.role.Store(int32(RoleFollower))
		return err
	}
	// The OpTerm record makes the new term durable at a definite LSN:
	// recovery finds it, and any record the old leader still ships below
	// this term is fenced. Append waits for the fsync, which also seals
	// everything replicated before the promotion.
	if _, err := s.wal.Append(wal.Record{Op: wal.OpTerm}); err != nil {
		s.role.Store(int32(RoleFollower))
		return err
	}
	s.journaling.Store(true)
	s.bootstrapping.Store(false)
	s.bootstrapNs.CompareAndSwap(-1, 0) // promoted before it ever caught up
	s.replLagLSN.Store(0)
	s.replErr.Store(nil)
	s.appliedLSN.Store(s.wal.WrittenLSN())
	s.role.Store(int32(RoleLeader))
	return nil
}

// gateMutation answers 503 (with Retry-After) on every mutating route of
// a non-leader, so only the replication stream can change a follower.
func (s *Server) gateMutation(w http.ResponseWriter) bool {
	if role := s.Role(); role != RoleLeader {
		writeErr(w, http.StatusServiceUnavailable,
			fmt.Errorf("server: %s does not accept mutations; write to the leader", role))
		return false
	}
	return true
}

// --- wire types ---

// ReplStatusResponse is the body of GET /v1/replication/status.
type ReplStatusResponse struct {
	Role          string `json:"role"`
	Term          uint64 `json:"term"`
	DurableLSN    uint64 `json:"durableLSN"`
	WrittenLSN    uint64 `json:"writtenLSN"`
	AppliedLSN    uint64 `json:"appliedLSN"`
	SnapshotLSN   uint64 `json:"snapshotLSN"`
	Bootstrapping bool   `json:"bootstrapping,omitempty"`
}

// ReplFrame is one journal record on the replication stream, NDJSON, one
// per line. CRC is crc32(IEEE) of Rec's raw bytes, re-verified by the
// receiver so a corrupted proxy hop cannot silently fork a follower.
type ReplFrame struct {
	CRC uint32          `json:"crc"`
	Rec json.RawMessage `json:"rec"`
}

// Verify recomputes the frame checksum and decodes the record.
func (f ReplFrame) Verify() (wal.Record, error) {
	if got := crc32.ChecksumIEEE(f.Rec); got != f.CRC {
		return wal.Record{}, fmt.Errorf("server: replication frame CRC mismatch (got %08x want %08x)", got, f.CRC)
	}
	var rec wal.Record
	if err := wal.UnmarshalRecord(f.Rec, &rec); err != nil {
		return wal.Record{}, fmt.Errorf("server: replication frame: %v", err)
	}
	return rec, nil
}

// DecodeReplLine is json.Unmarshal of one line of the replication stream
// into a ReplFrame and Verify of it, without either reflection walk, for a
// line as handleReplLog writes it — `{"crc":N,"rec":{…}}`, the record in the
// hand-written codec's plain subset — with the right checksum. Anything else
// reports false: the caller runs the two steps themselves, which define
// what a line may look like and how a bad one is reported.
func DecodeReplLine(line []byte) (wal.Record, bool) {
	var rec wal.Record
	var seen uint32
	s := wire.NewScanner(line)
	s.Object()
	if s.Key(replFrameKeys, &seen) != 0 {
		return rec, false
	}
	crc := s.Uint32()
	if s.Key(replFrameKeys, &seen) != 1 {
		return rec, false
	}
	// The record must run brace to brace, the frame's own brace right after
	// it: then its bytes are the RawMessage Unmarshal would cut out — once
	// DecodeRecord has found them to be one well-formed object.
	rest := s.Rest()
	if len(rest) < 3 || rest[0] != '{' || string(rest[len(rest)-2:]) != "}}" {
		return rec, false
	}
	payload := rest[:len(rest)-1]
	if crc32.ChecksumIEEE(payload) != crc || !wal.DecodeRecord(payload, &rec) {
		return wal.Record{}, false
	}
	return rec, true
}

var replFrameKeys = []string{"crc", "rec"}

// ReplSnapshotResponse is the body of GET /v1/replication/snapshot: the
// latest journal snapshot, exactly as InstallSnapshot wants it.
type ReplSnapshotResponse struct {
	LSN     uint64          `json:"lsn"`
	Term    uint64          `json:"term"`
	Payload json.RawMessage `json:"payload"`
}

// PromoteResponse is the body of POST /v1/cluster/promote.
type PromoteResponse struct {
	Role string `json:"role"`
	Term uint64 `json:"term"`
}

// --- handlers ---

func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	resp := ReplStatusResponse{
		Role:          s.Role().String(),
		AppliedLSN:    s.AppliedLSN(),
		Bootstrapping: s.bootstrapping.Load(),
	}
	if s.wal != nil {
		resp.Term = s.wal.Term()
		resp.DurableLSN = s.wal.DurableLSN()
		resp.WrittenLSN = s.wal.WrittenLSN()
		resp.SnapshotLSN = s.wal.SnapshotLSN()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleReplSnapshot serves the latest snapshot for follower bootstrap,
// self-contained: dispatch history the on-disk payload only names by file
// is inlined back, so the follower installs it into an empty directory
// exactly as before history was sealed. opMu's read side keeps compaction
// — which replaces the snapshot and deletes the files the old one named —
// out while the two are read.
func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.wal == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("server: no journal (in-memory server)"))
		return
	}
	s.opMu.RLock()
	payload, lsn, term, err := s.wal.Snapshot()
	if err == nil && payload != nil {
		payload, err = selfContained(s.wal, payload)
	}
	s.opMu.RUnlock()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if payload == nil {
		// Open always boot-compacts, so this only happens before Open
		// finished arming — treat as not-ready.
		writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("server: no snapshot yet"))
		return
	}
	writeJSON(w, http.StatusOK, ReplSnapshotResponse{LSN: lsn, Term: term, Payload: payload})
}

// handleReplLog streams journal records as NDJSON ReplFrames from
// ?from=<lsn> (default 1), never past the durable LSN. ?follow=true (the
// default, mirroring the dispatch stream) keeps the stream open and
// tails new records as they become durable; ?follow=false stops at the
// current durable tip. A cursor below the snapshot horizon answers 410
// Gone: the records were folded away and the follower must re-bootstrap
// from the snapshot.
func (s *Server) handleReplLog(w http.ResponseWriter, r *http.Request) {
	if s.wal == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("server: no journal (in-memory server)"))
		return
	}
	from := uint64(1)
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("server: bad from %q", v))
			return
		}
		if n > 0 {
			from = n
		}
	}
	follow := r.URL.Query().Get("follow") != "false"

	rd := s.wal.NewReader(from)
	defer rd.Close()

	// A caught-up stream sleeps until the journal's next fsync. The wake
	// channel is taken before every read, so an fsync between a read that
	// finds nothing and the wait on it closes the channel already held: no
	// record is left behind with nothing due to wake the stream.
	var durable <-chan struct{}
	next := func() ([]wal.RawFrame, error) {
		if follow {
			durable = s.wal.NextDurable()
		}
		return rd.NextRaw(replLogBatch)
	}

	// Resolve the first batch before committing to a 200, so a compacted
	// cursor can still answer 410.
	frames, err := next()
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, wal.ErrCompacted) {
			status = http.StatusGone
		}
		writeErr(w, status, err)
		return
	}

	s.replLogStreams.Add(1) // before the header: a client that has its 200 is counted
	defer s.replLogStreams.Add(-1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}

	// Encode-once shipping: each frame's payload is the exact bytes the
	// journal holds on disk — json.Marshal of the final stamped record —
	// and the header CRC is crc32(payload), so the ReplFrame wire line
	// {"crc":N,"rec":<payload>} is assembled byte-for-byte from the raw
	// frame without decoding or re-marshaling a single record. The batch
	// buffer is reused across wakeups: one Write and one Flush per batch.
	// Replication followers are never evicted for lag — the reader paces
	// them against the durable horizon and the log is on disk anyway.
	var line []byte
	for {
		switch {
		case len(frames) > 0:
			line = line[:0]
			for _, f := range frames {
				line = append(line, `{"crc":`...)
				line = strconv.AppendUint(line, uint64(f.CRC), 10)
				line = append(line, `,"rec":`...)
				line = append(line, f.Payload...)
				line = append(line, '}', '\n')
			}
			if _, werr := w.Write(line); werr != nil {
				return // client went away
			}
			if flusher != nil {
				flusher.Flush()
			}
		case !follow:
			return
		default:
			select {
			case <-durable:
			case <-r.Context().Done():
				return
			case <-s.shutdown:
				return
			}
		}
		if frames, err = next(); err != nil {
			// Mid-stream errors (including a compaction overtaking a slow
			// cursor) just end the stream; the follower re-queries and
			// gets the precise status then.
			return
		}
	}
}

// replLogBatch bounds records per write on the replication stream.
const replLogBatch = 256

// handlePromote flips this node writable. Idempotent: promoting a leader
// reports the current term. The configured promote hook (the cluster
// follower's tail-stream seal) runs first, so no replicated append races
// the term bump.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if s.Role() != RoleLeader {
		if hook := s.promoteHook.Load(); hook != nil {
			if err := (*hook)(); err != nil {
				writeErr(w, http.StatusInternalServerError, err)
				return
			}
		}
		if err := s.Promote(); err != nil {
			writeErr(w, statusOf(err, http.StatusServiceUnavailable), err)
			return
		}
	}
	resp := PromoteResponse{Role: s.Role().String()}
	if s.wal != nil {
		resp.Term = s.wal.Term()
	}
	writeJSON(w, http.StatusOK, resp)
}

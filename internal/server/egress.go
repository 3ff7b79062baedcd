package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"desyncpfair/internal/rat"
	"desyncpfair/internal/wire"
)

// This file is the egress side of the encode-once plane. Records are
// serialized to NDJSON wire bytes at most once, by the goroutine that owns
// them — a journaled tenant's loop for its dispatch events (Tenant.record,
// into the tail of its dispatch log: dispatchlog.go), the WAL appender for
// replication frames (wal.Reader.NextRaw ships the on-disk payload) — and
// every follower writes the shared bytes. The rest is served per reader: a
// journaled tenant's sealed frames are copied from its hist-* files, an
// in-memory tenant's log is rendered from its compact records, and so is
// every trace event, from its ring's record (obs.Ring.AppendFrames), both
// into the stream's own buffer. The frameWriter below writes a bounded run
// of frames per Write — a span of a dispatch-log chunk, a block of a
// history file, a batch of rendered, trace or journal lines gathered into
// one buffer — flushes once per drain, and bounds how long any write may
// block on a wedged client.
//
// Slow-consumer policy, one rule for every feed: a reader that keeps
// reading is served everything the source retains, however far behind it
// is, and a reader that stops reading dies on the per-write stall
// deadline. A lagging dispatch reader pins no more than the resident
// chunks of the one view its current drain loaded; older history it reads
// from the sealed files.

const (
	// defaultStreamStall bounds how long one streamed write may block on
	// an unresponsive client before the connection is severed.
	defaultStreamStall = 30 * time.Second
	// maxStreamBatch caps the frames per write so deadline re-arms happen
	// at a bounded granularity.
	maxStreamBatch = 256
)

// StreamGone is the shape of an in-band 410 control line: a message, its
// status and the seq to resume from. pfaird never sends it — a reader that
// keeps reading is served in full — and only the repository benchmark's
// stream reader still decodes it.
type StreamGone struct {
	Error      string `json:"error"`
	Status     int    `json:"status"`
	ResumeFrom int64  `json:"resumeFrom"`
}

// appendDispatchFrame appends one dispatch decision as its NDJSON wire
// frame: json.Marshal of the DispatchEvent plus a newline, byte for byte,
// written straight from the rats with no reflection walk and no string per
// value. An event is four integers, three rats — digits, '-' and '/', their
// own JSON encoding between quotes — and a task name, which is too when it
// is wire.Plain; any other name takes json.Marshal itself. A journaled
// tenant's dispatch is encoded here at record time, and a cold log's
// records are rendered back here: the stream, the ?from replay, the sealed
// history files and the snapshot's inline tail all carry these bytes.
func appendDispatchFrame(b []byte, seq int64, task string, index int64, proc int, start, finish rat.Rat, deadline int64, tard rat.Rat) []byte {
	if !wire.Plain(task) {
		j, err := json.Marshal(DispatchEvent{
			Seq: seq, Task: task, Index: index, Proc: proc,
			Start: start.String(), Finish: finish.String(), Deadline: deadline, Tardiness: tard.String(),
		})
		if err != nil {
			// DispatchEvent is plain ints and strings; Marshal cannot fail.
			j = []byte("{}")
		}
		return append(append(b, j...), '\n')
	}
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, seq, 10)
	b = append(b, `,"task":"`...)
	b = append(b, task...)
	b = append(b, `","index":`...)
	b = strconv.AppendInt(b, index, 10)
	b = append(b, `,"proc":`...)
	b = strconv.AppendInt(b, int64(proc), 10)
	b = append(b, `,"start":"`...)
	b = start.AppendTo(b)
	b = append(b, `","finish":"`...)
	b = finish.AppendTo(b)
	b = append(b, `","deadline":`...)
	b = strconv.AppendInt(b, deadline, 10)
	b = append(b, `,"tardiness":"`...)
	b = tard.AppendTo(b)
	return append(b, '"', '}', '\n')
}

// maxFrameBytes bounds the frame appendDispatchFrame writes for a task
// name of n bytes: the fixed keys and punctuation, four integers of at most
// 20 digits, three rats of at most 41, and the name with every byte
// escaped to \u00XX.
func maxFrameBytes(n int) int { return 96 + 4*20 + 3*41 + 6*n }

// frameWriter writes cached NDJSON frames to one streaming response. It
// arms a write deadline around every batch so a wedged client can only
// stall its own connection for stall, never the handler forever. A
// deadline that the connection does not support (httptest recorders) is
// silently skipped.
type frameWriter struct {
	w      http.ResponseWriter
	rc     *http.ResponseController
	stall  time.Duration
	severs *atomic.Int64 // writes that died on the stall deadline
	// unflushed is set by a write and cleared by a flush: a drain that
	// found nothing new leaves nothing to push to the client.
	unflushed bool
}

func (s *Server) newFrameWriter(w http.ResponseWriter) *frameWriter {
	return &frameWriter{w: w, rc: http.NewResponseController(w), stall: s.streamStall, severs: &s.obs.streamSevers}
}

func (fw *frameWriter) armDeadline() {
	_ = fw.rc.SetWriteDeadline(time.Now().Add(fw.stall))
}

func (fw *frameWriter) clearDeadline() {
	_ = fw.rc.SetWriteDeadline(time.Time{})
}

// Write writes a run of frames held contiguously — a dispatch-log chunk, a
// block of a history file, a batch of trace or journal lines — under one
// stall deadline.
func (fw *frameWriter) Write(p []byte) (int, error) {
	fw.armDeadline()
	fw.unflushed = true
	n, err := fw.w.Write(p)
	return n, fw.wrote(err)
}

// wrote ends a deadline-bounded write, counting one that died on the
// stall deadline.
func (fw *frameWriter) wrote(err error) error {
	fw.clearDeadline()
	if errors.Is(err, os.ErrDeadlineExceeded) {
		fw.severs.Add(1)
	}
	return err
}

// flush pushes buffered bytes to the client, bounded by the stall
// deadline like any other write — a short run of frames only reaches the
// socket here, so this is as likely as a write to be where a wedged client
// is found out. A writer that cannot flush (an httptest recorder without
// one) has nothing buffered.
func (fw *frameWriter) flush() error {
	fw.armDeadline()
	fw.unflushed = false
	err := fw.rc.Flush()
	if errors.Is(err, http.ErrNotSupported) {
		err = nil
	}
	return fw.wrote(err)
}

// feed is one NDJSON source a read stream serves from a position: the
// dispatch log (by seq), the trace ring (by event Seq), the journal (by
// LSN). wake returns a channel the source closes at its next growth — the
// dispatch log's next publish, the ring's next append, the journal's next
// fsync. The loop calls it before every drain, so the channel is already
// held if the source grows between a drain that found nothing and the
// wait. drain writes everything the source holds from pos on and returns
// the position after it. done, when set, ends the stream after one more
// drain.
type feed struct {
	wake  func() <-chan struct{}
	drain func(fw *frameWriter, pos int64) (int64, error)
	done  <-chan struct{}
}

// streamQuery parses a read stream's ?from — a non-negative int64, 0 when
// absent — and ?follow, which only "false" turns off. It answers a bad
// from with 400 itself and reports !ok.
func streamQuery(w http.ResponseWriter, r *http.Request) (from int64, follow, ok bool) {
	q := r.URL.Query()
	if v := q.Get("from"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("server: bad from %q", v))
			return 0, false, false
		}
		from = n
	}
	return from, q.Get("follow") != "false", true
}

// stream serves a feed as one JSON object per line: first the backlog from
// pos, then what the source gains, flushing after every drain that wrote.
// Without follow it stops at the current end instead. The stream ends when
// the client goes away, the feed is done, the server shuts down or the
// backlog is exhausted without follow — in the last three cases only after
// everything the source holds has been written (the "drain" part of
// graceful shutdown). A client that stops reading entirely dies on the
// frameWriter's stall deadline.
func (s *Server) stream(w http.ResponseWriter, r *http.Request, pos int64, follow bool, f feed) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fw := s.newFrameWriter(w)
	// Push the headers out now: a follower of an idle source must see the
	// stream open immediately, not on the first event.
	if fw.flush() != nil {
		return
	}
	for {
		var wake <-chan struct{}
		if follow {
			wake = f.wake()
		}
		var err error
		if pos, err = f.drain(fw, pos); err != nil {
			return // client went away, stalled past the deadline, or the source failed
		}
		if fw.unflushed && fw.flush() != nil {
			return
		}
		if !follow {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		case <-f.done:
			follow = false // flush whatever landed, then stop
		case <-s.shutdown:
			follow = false
		}
	}
}

// handleDispatches streams the tenant's dispatch log. A wire chunk's
// frames were encoded once at record time and the handler only moves them
// — a span of the chunk per write; a cold chunk's are rendered into the
// stream's own buffer, which never holds a chunk's bytes; seqs below the
// log's resident floor are served in blocks of the sealed history files
// that hold the same bytes.
func (s *Server) handleDispatches(w http.ResponseWriter, r *http.Request) {
	t := s.routeTenant(w, r)
	if t == nil {
		return
	}
	from, follow, ok := streamQuery(w, r)
	if !ok {
		return
	}
	var render []byte
	s.stream(w, r, from, follow, feed{wake: t.Subscribe, done: t.Closed(), drain: func(fw *frameWriter, pos int64) (int64, error) {
		return s.drainLog(fw, &t.snap.Load().log, pos, &render)
	}})
}

// drainLog writes the frames of log, a published view, from seq pos to its
// end — those below its resident floor from the history files, as far as
// its manifest names them, the rest from its chunks, a cold chunk's
// rendered into *render — and returns the seq it reached.
func (s *Server) drainLog(w io.Writer, log *dispatchLog, pos int64, render *[]byte) (int64, error) {
	if floor := log.floor(); pos < floor && pos < log.len() {
		if err := s.copySealed(w, log.hist, pos); err != nil {
			return pos, err
		}
		pos = floor
	}
	for pos < log.len() {
		frames, n := log.frames(render, pos, maxStreamBatch)
		if n == 0 {
			// Never inside the log; a stream must not spin if it were.
			return pos, io.ErrNoProgress
		}
		if _, err := w.Write(frames); err != nil {
			return pos, err
		}
		pos += int64(n)
	}
	return pos, nil
}

// handleTrace streams the tenant's trace ring, one obs.Event per line.
// The ring renders a batch of frames from its compact records into the
// stream's own buffer, one Write per batch. A drain ends once it has served
// the events the ring held when it began, so a busy tenant cannot keep a
// follow=false read from ending. Ring retention is bounded, so a follower that asks for
// evicted history, or falls behind it, resumes at the oldest retained
// event instead of pinning memory — the Seq gap tells it how much it
// missed.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	t := s.routeTenant(w, r)
	if t == nil {
		return
	}
	from, follow, ok := streamQuery(w, r)
	if !ok {
		return
	}
	ring := t.traceRing()
	var render []byte
	s.stream(w, r, from, follow, feed{wake: ring.NextAppend, done: t.Closed(), drain: func(fw *frameWriter, pos int64) (int64, error) {
		for end := ring.Next(); pos < end; {
			var n int
			var dropped int64
			render, n, dropped = ring.AppendFrames(render[:0], pos, maxStreamBatch)
			pos += dropped + int64(n)
			if n == 0 {
				break // evicted up to the end while this drain wrote
			}
			if _, err := fw.Write(render); err != nil {
				return pos, err
			}
		}
		return pos, nil
	}})
}

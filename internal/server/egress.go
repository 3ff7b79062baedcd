package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"desyncpfair/internal/rat"
	"desyncpfair/internal/wire"
)

// This file is the egress side of the encode-once plane. Records are
// serialized to NDJSON wire bytes exactly once, by the goroutine that
// owns them — the tenant loop for dispatch events (Tenant.record, whose
// dispatch log is nothing but those bytes: dispatchlog.go), the trace ring
// for trace events (obs.Ring.FramesSince), the WAL appender for
// replication frames (wal.Reader.NextRaw ships the on-disk payload) — and
// every subscriber writes the shared bytes by reference. The frameWriter
// below writes a bounded run of frames per call — contiguous chunk bytes
// for dispatches, one vectored net.Buffers write with a reused backing
// slice for trace frames — flushes once per batch, and bounds how long
// any write may block on a wedged client.
//
// Slow-consumer policy: replication followers are never evicted (the WAL
// reader paces them against the durable horizon and the log is on disk
// anyway), but a dispatch-stream follower that falls more than the lag
// bound behind is cut loose with an in-band StreamGone control line
// instead of being chased. Fully-wedged clients — ones that stop reading
// entirely — die on the per-write stall deadline instead.

const (
	// DefaultStreamMaxLag is how many records a following dispatch stream
	// may lag behind the log tip before it is evicted with a 410 control
	// line. SetStreamPolicy / Options.StreamMaxLag override it.
	DefaultStreamMaxLag = 65536
	// DefaultStreamStall bounds how long one streamed write may block on
	// an unresponsive client before the connection is severed.
	DefaultStreamStall = 30 * time.Second
	// maxStreamBatch caps the frames per write so lag checks and deadline
	// re-arms happen at a bounded granularity.
	maxStreamBatch = 256
)

// StreamGone is the in-band control line a read stream receives instead
// of an event when the server evicts it for lagging past the stream
// policy's bound. Events never carry an "error" key, so clients detect it
// unambiguously; ResumeFrom is the seq to reconnect with (?from=N).
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
// is wire.Plain; any other name takes json.Marshal itself. Every dispatch is
// encoded here exactly once: the stream, the ?from replay, the sealed
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
// reuses a net.Buffers backing slice across batches (zero allocation per
// wakeup once warm) and arms a write deadline around every batch so a
// wedged client can only stall its own connection for stall, never the
// handler forever. A deadline that the connection does not support
// (httptest recorders) is silently skipped.
type frameWriter struct {
	w      http.ResponseWriter
	rc     *http.ResponseController
	stall  time.Duration
	severs *atomic.Int64 // writes that died on the stall deadline
	bufs   net.Buffers
	// unflushed is set by a write and cleared by a flush: a drain that
	// found nothing new leaves nothing to push to the client.
	unflushed bool
}

func (s *Server) newFrameWriter(w http.ResponseWriter) *frameWriter {
	return &frameWriter{w: w, rc: http.NewResponseController(w), stall: s.streamStall, severs: &s.obs.streamSevers}
}

func (fw *frameWriter) armDeadline() {
	if fw.stall > 0 {
		_ = fw.rc.SetWriteDeadline(time.Now().Add(fw.stall))
	}
}

func (fw *frameWriter) clearDeadline() {
	if fw.stall > 0 {
		_ = fw.rc.SetWriteDeadline(time.Time{})
	}
}

// writeFrames writes a run of separately held frames (the trace ring's) as
// one vectored write. net.Buffers consumes its entries, so the reused
// backing slice is repopulated from the frame refs on every call; the
// frames themselves are shared and never copied.
func (fw *frameWriter) writeFrames(frames [][]byte) error {
	fw.bufs = append(fw.bufs[:0], frames...)
	fw.armDeadline()
	fw.unflushed = true
	_, err := fw.bufs.WriteTo(fw.w)
	return fw.wrote(err)
}

// Write writes a run of frames held contiguously (a dispatch-log chunk, a
// block of a history file), shared and never copied.
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

// writeGone emits the eviction control line: the stream stays a valid
// NDJSON sequence, the client learns the position to reconnect from, and
// the handler returns. Best effort — a client that stopped reading may
// never see it.
func (fw *frameWriter) writeGone(resume int64) {
	line, err := json.Marshal(StreamGone{
		Error:      fmt.Sprintf("stream evicted: lagging past the server's bound; reconnect with ?from=%d", resume),
		Status:     http.StatusGone,
		ResumeFrom: resume,
	})
	if err != nil {
		return
	}
	if _, err := fw.Write(append(line, '\n')); err == nil {
		_ = fw.flush() // best effort, as above
	}
}

// feed is one NDJSON source a read stream serves from a position: the
// dispatch log (by seq), the trace ring (by event Seq). wake receives a
// coalesced signal after the source grew. drain writes everything the
// source holds from pos on and returns the position after it. tip, when
// set, is the source's end, and a follower more than the stream policy's
// lag bound behind it after a drain is evicted; a source that bounds its
// own retention sets none — its slow follower skips ahead instead.
type feed struct {
	wake  <-chan struct{}
	drain func(fw *frameWriter, pos int64) (int64, error)
	tip   func() int64
}

// stream serves one of t's feeds as one JSON object per line: first the
// backlog from ?from (default 0), then what the source gains, flushing
// after every drain. ?follow=false stops at the current end instead. The
// stream ends when the client goes away, the tenant is deleted, the server
// shuts down or the backlog is exhausted without follow — in the last
// three cases only after everything the source holds has been written (the
// "drain" part of graceful shutdown). A client that stops reading
// entirely dies on the frameWriter's stall deadline.
func (s *Server) stream(w http.ResponseWriter, r *http.Request, t *Tenant, f feed) {
	var pos int64
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("server: bad from %q", v))
			return
		}
		pos = n
	}
	follow := r.URL.Query().Get("follow") != "false"

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fw := s.newFrameWriter(w)
	// Push the headers out now: a follower of an idle tenant must see the
	// stream open immediately, not on the first event.
	if fw.flush() != nil {
		return
	}
	for {
		var err error
		if pos, err = f.drain(fw, pos); err != nil {
			return // client went away or stalled past the deadline
		}
		if fw.unflushed && fw.flush() != nil {
			return
		}
		if !follow {
			return
		}
		if f.tip != nil && s.streamMaxLag > 0 && f.tip()-pos > s.streamMaxLag {
			// The source outgrew this follower by more than the bound
			// while it drained: cut it loose rather than chase it.
			s.obs.streamEvict.Add(1)
			fw.writeGone(pos)
			return
		}
		select {
		case <-f.wake:
		case <-r.Context().Done():
			return
		case <-t.Closed():
			follow = false // flush whatever landed, then stop
		case <-s.shutdown:
			follow = false
		}
	}
}

// handleDispatches streams the tenant's dispatch log. Every line is a frame
// the tenant loop encoded once at record time; the handler only moves bytes
// — a run of a resident chunk per write, or, for seqs below the log's
// resident floor, blocks of the sealed history files that hold the same
// bytes. A following stream that lags more than streamMaxLag records behind
// the tip after a drain is evicted with a StreamGone control line.
func (s *Server) handleDispatches(w http.ResponseWriter, r *http.Request) {
	t := s.routeTenant(w, r)
	if t == nil {
		return
	}
	sub := t.Subscribe()
	defer t.Unsubscribe(sub)
	s.stream(w, r, t, feed{wake: sub.ping, tip: t.LogLen, drain: func(fw *frameWriter, pos int64) (int64, error) {
		log := &t.snap.Load().log
		if floor := log.floor(); pos < floor && pos < log.len() {
			if err := s.copySealed(fw, log.hist, pos); err != nil {
				return pos, err
			}
			pos = floor
		}
		for pos < log.len() {
			frames, n := log.frames(pos, maxStreamBatch)
			if n == 0 {
				// Never inside the log; a stream must not spin if it were.
				return pos, io.ErrNoProgress
			}
			if _, err := fw.Write(frames); err != nil {
				return pos, err
			}
			pos += int64(n)
		}
		return pos, nil
	}})
}

// handleTrace streams the tenant's trace ring, one obs.Event per line.
// Frames come from the ring's memoized wire cache: each retained event is
// encoded at most once no matter how many followers stream it. Ring
// retention is bounded, so a follower that asks for evicted history, or
// falls behind it, resumes at the oldest retained event instead of pinning
// memory — the Seq gap tells it how much it missed.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	t := s.routeTenant(w, r)
	if t == nil {
		return
	}
	ring := t.traceRing()
	sub := ring.Subscribe()
	defer ring.Unsubscribe(sub)
	s.stream(w, r, t, feed{wake: sub, drain: func(fw *frameWriter, pos int64) (int64, error) {
		frames, dropped := ring.FramesSince(pos)
		pos += dropped
		for len(frames) > 0 {
			n := min(len(frames), maxStreamBatch)
			if err := fw.writeFrames(frames[:n]); err != nil {
				return pos, err
			}
			frames = frames[n:]
			pos += int64(n)
		}
		return pos, nil
	}})
}

// SetStreamPolicy configures the slow-consumer policy for the read
// streams (dispatch and trace): maxLag is the record-count bound past
// which a following dispatch stream is evicted with a 410 control line
// (0 default, negative disables), stall the per-write deadline on every
// stream write (0 default, negative disables). Call before serving
// traffic, like SetClock.
func (s *Server) SetStreamPolicy(maxLag int64, stall time.Duration) {
	switch {
	case maxLag < 0:
		s.streamMaxLag = 0
	case maxLag == 0:
		s.streamMaxLag = DefaultStreamMaxLag
	default:
		s.streamMaxLag = maxLag
	}
	switch {
	case stall < 0:
		s.streamStall = 0
	case stall == 0:
		s.streamStall = DefaultStreamStall
	default:
		s.streamStall = stall
	}
}

// StreamEvictions reports how many read streams this server has evicted
// for lagging past the policy bound.
func (s *Server) StreamEvictions() int64 { return s.obs.streamEvict.Load() }

// StreamStallSevers reports how many read streams this server has severed
// because a write to a wedged reader outlasted the stall deadline.
func (s *Server) StreamStallSevers() int64 { return s.obs.streamSevers.Load() }

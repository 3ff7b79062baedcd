package server

import (
	"encoding/json"
	"errors"
	"fmt"
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
	_, err := fw.bufs.WriteTo(fw.w)
	return fw.wrote(err)
}

// Write writes a run of frames held contiguously (a dispatch-log chunk, a
// block of a history file), shared and never copied.
func (fw *frameWriter) Write(p []byte) (int, error) {
	fw.armDeadline()
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

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
)

// This file is the egress side of the encode-once plane. Records are
// serialized to NDJSON wire bytes exactly once, by the goroutine that
// owns them — the tenant loop for dispatch events (Tenant.record), the
// trace ring for trace events (obs.Ring.FramesSince), the WAL appender
// for replication frames (wal.Reader.NextRaw ships the on-disk payload)
// — and every subscriber writes the cached frames by reference. The
// frameWriter below batches contiguous frames into one vectored
// net.Buffers write per wakeup with a reused backing slice, flushes once
// per batch, and bounds how long any write may block on a wedged client.
//
// Slow-consumer policy: replication followers are never evicted (the WAL
// reader paces them against the durable horizon and the log is on disk
// anyway), but dispatch-stream followers hold a position in the in-memory
// frame cache, so a follower that falls more than the lag bound behind is
// cut loose with an in-band StreamGone control line instead of pinning
// the process. Fully-wedged clients — ones that stop reading entirely —
// die on the per-write stall deadline instead.

const (
	// DefaultStreamMaxLag is how many records a following dispatch stream
	// may lag behind the log tip before it is evicted with a 410 control
	// line. SetStreamPolicy / Options.StreamMaxLag override it.
	DefaultStreamMaxLag = 65536
	// DefaultStreamStall bounds how long one streamed write may block on
	// an unresponsive client before the connection is severed.
	DefaultStreamStall = 30 * time.Second
	// maxStreamBatch caps the frames per vectored write so lag checks and
	// deadline re-arms happen at a bounded granularity.
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

// marshalDispatchFrame renders ev exactly as a json.Encoder would:
// Marshal plus a trailing newline. Byte identity with the per-subscriber
// encoder it replaced is what lets the frame cache swap in invisibly.
func marshalDispatchFrame(ev DispatchEvent) []byte {
	return append(appendDispatchJSON(make([]byte, 0, 160), &ev), '\n')
}

// appendDispatchJSON appends json.Marshal(ev) to b, byte for byte, without
// the reflection walk: an event is four integers and four strings, and a
// string of nothing but plain ASCII — every rat, and any task name without
// quotes, backslashes, control or HTML characters — is its own JSON
// encoding between quotes. Anything else takes json.Marshal itself. Every
// dispatch is encoded through here once for its readers and once for disk
// (sealSegment, and each snapshot that still carries it inline).
func appendDispatchJSON(b []byte, ev *DispatchEvent) []byte {
	if !plainJSON(ev.Task) || !plainJSON(ev.Start) || !plainJSON(ev.Finish) || !plainJSON(ev.Tardiness) {
		j, err := json.Marshal(ev)
		if err != nil {
			// DispatchEvent is plain ints and strings; Marshal cannot fail.
			j = []byte("{}")
		}
		return append(b, j...)
	}
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, ev.Seq, 10)
	b = append(b, `,"task":"`...)
	b = append(b, ev.Task...)
	b = append(b, `","index":`...)
	b = strconv.AppendInt(b, ev.Index, 10)
	b = append(b, `,"proc":`...)
	b = strconv.AppendInt(b, int64(ev.Proc), 10)
	b = append(b, `,"start":"`...)
	b = append(b, ev.Start...)
	b = append(b, `","finish":"`...)
	b = append(b, ev.Finish...)
	b = append(b, `","deadline":`...)
	b = strconv.AppendInt(b, ev.Deadline, 10)
	b = append(b, `,"tardiness":"`...)
	b = append(b, ev.Tardiness...)
	return append(b, '"', '}')
}

// plainJSON reports whether encoding/json would copy s between quotes
// unchanged: ASCII from space up, minus the characters it escapes (the
// quote, the backslash, and — Marshal's HTML-safe default — <, > and &).
func plainJSON(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// frameWriter writes cached NDJSON frames to one streaming response. It
// reuses a net.Buffers backing slice across batches (zero allocation per
// wakeup once warm) and arms a write deadline around every batch so a
// wedged client can only stall its own connection for stall, never the
// handler forever. A deadline that the connection does not support
// (httptest recorders) is silently skipped.
type frameWriter struct {
	w      http.ResponseWriter
	rc     *http.ResponseController
	fl     http.Flusher
	stall  time.Duration
	severs *atomic.Int64 // writes that died on the stall deadline
	bufs   net.Buffers
}

func (s *Server) newFrameWriter(w http.ResponseWriter) *frameWriter {
	fw := &frameWriter{w: w, rc: http.NewResponseController(w), stall: s.streamStall, severs: &s.streamSevers}
	fw.fl, _ = w.(http.Flusher)
	return fw
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

// writeFrames writes a contiguous run of frames as one vectored write.
// net.Buffers consumes its entries, so the reused backing slice is
// repopulated from the frame refs on every call; the frames themselves
// are shared and never copied.
func (fw *frameWriter) writeFrames(frames [][]byte) error {
	fw.bufs = append(fw.bufs[:0], frames...)
	fw.armDeadline()
	_, err := fw.bufs.WriteTo(fw.w)
	fw.clearDeadline()
	if errors.Is(err, os.ErrDeadlineExceeded) {
		fw.severs.Add(1)
	}
	return err
}

// flush pushes buffered bytes to the client, bounded by the stall
// deadline like any other write.
func (fw *frameWriter) flush() {
	if fw.fl == nil {
		return
	}
	fw.armDeadline()
	fw.fl.Flush()
	fw.clearDeadline()
}

// writeGone emits the eviction control line: the stream stays a valid
// NDJSON sequence, the client learns the position to reconnect from, and
// the handler returns without pinning the frame cache any longer. Best
// effort — a client that stopped reading may never see it.
func (fw *frameWriter) writeGone(resume int64) {
	line, err := json.Marshal(StreamGone{
		Error:      fmt.Sprintf("stream evicted: lagging past the server's bound; reconnect with ?from=%d", resume),
		Status:     http.StatusGone,
		ResumeFrom: resume,
	})
	if err != nil {
		return
	}
	fw.armDeadline()
	if _, err := fw.w.Write(append(line, '\n')); err == nil && fw.fl != nil {
		fw.fl.Flush()
	}
	fw.clearDeadline()
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
func (s *Server) StreamEvictions() int64 { return s.streamEvict.Load() }

// StreamStallSevers reports how many read streams this server has severed
// because a write to a wedged reader outlasted the stall deadline.
func (s *Server) StreamStallSevers() int64 { return s.streamSevers.Load() }

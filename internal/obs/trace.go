package obs

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"
)

// Lifecycle stages of one traced command. A mutating request emits
// StageSubmit when it reaches its tenant, StageWALAppend after its record
// is journaled (durable servers only), one StageDispatch after its last
// scheduling decision if its apply made any, and StageApply once the
// executive applied it. The Cmd field ties the stages of one command
// together.
const (
	StageSubmit    = "submit"
	StageWALAppend = "wal-append"
	StageApply     = "apply"
	StageDispatch  = "dispatch"
)

// Event is one structured trace event, streamed as NDJSON by
// GET /v1/tenants/{id}/trace. Wall timestamps come from the injected
// Clock (exact under a Fake); virtual-time detail travels as exact
// rational strings like the rest of the wire protocol.
type Event struct {
	// Seq is the event's sequence number in its tenant's trace ring,
	// monotone from 0. A stream opened with ?from=N resumes at the oldest
	// retained event with Seq ≥ N.
	Seq int64 `json:"seq"`
	// T is the event time in nanoseconds since the Unix epoch.
	T int64 `json:"t"`
	// Tenant is the owning tenant id.
	Tenant string `json:"tenant,omitempty"`
	// Cmd correlates the stages of one command (per-tenant, monotone from
	// 1). A dispatch event carries the Cmd of the advance or drain whose
	// decisions it covers.
	Cmd int64 `json:"cmd,omitempty"`
	// Op is the command op ("job-submit", "advance", ...), matching the
	// WAL record op names.
	Op string `json:"op,omitempty"`
	// Stage is one of the Stage* constants.
	Stage string `json:"stage"`
	// Task names the task involved, when there is one.
	Task string `json:"task,omitempty"`
	// At is the virtual time the command named (exact rat string).
	At string `json:"at,omitempty"`
	// DSeq is the index in the tenant's dispatch log of the command's first
	// decision (StageDispatch only).
	DSeq int64 `json:"dseq,omitempty"`
	// Count is how many decisions the command made: they are log entries
	// DSeq … DSeq+Count−1, the range the journal's dispatch digest of the
	// command covers (StageDispatch only).
	Count int64 `json:"count,omitempty"`
	// Lag is the worst tardiness among the command's decisions, in quanta,
	// an exact rat string (StageDispatch only).
	Lag string `json:"lag,omitempty"`
	// DurNs is the duration of the stage in nanoseconds, measured from
	// the command's StageSubmit instant by the injected clock; a dispatch
	// event's is taken after the command's last decision.
	DurNs int64 `json:"durNs,omitempty"`
	// Err carries the failure message when the stage failed; the command
	// emits no further stages then.
	Err string `json:"err,omitempty"`
}

// Ring retains the most recent trace events in a fixed-capacity ring
// buffer and wakes followers when new events land (NextAppend). It is safe
// for concurrent use. Sequence numbers are assigned on Append and never
// reused; once the ring wraps, the oldest events are dropped and Since
// reports how many the caller missed.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	wire  [][]byte // memoized NDJSON wire bytes per slot; nil = not yet encoded
	start int      // index of the oldest retained event
	n     int      // retained count
	next  int64    // next sequence number to assign
	// grown is what NextAppend hands out: nil until somebody asks, closed
	// and forgotten by the next Append.
	grown chan struct{}
}

// NewRing creates a ring retaining up to cap events (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, capacity), wire: make([][]byte, capacity)}
}

// Append assigns the event's sequence number, stores it (evicting the
// oldest if full), wakes followers, and returns the assigned Seq.
func (r *Ring) Append(ev Event) int64 {
	r.mu.Lock()
	ev.Seq = r.next
	r.next++
	if r.n == len(r.buf) {
		r.buf[r.start] = ev
		r.wire[r.start] = nil
		r.start = (r.start + 1) % len(r.buf)
	} else {
		i := (r.start + r.n) % len(r.buf)
		r.buf[i] = ev
		r.wire[i] = nil
		r.n++
	}
	if r.grown != nil {
		close(r.grown)
		r.grown = nil
	}
	r.mu.Unlock()
	return ev.Seq
}

// FramesSince returns each retained event with Seq ≥ from as its NDJSON
// frame (json.Marshal + '\n', identical to what a json.Encoder would
// emit), plus how many events with Seq ≥ from were already evicted (a
// follower that asked for history the ring no longer holds learns it
// skipped, rather than silently missing it). Frames are encoded lazily on
// first request and memoized per slot, so a ring nobody follows never pays
// an encode while N followers share one encode per event. Returned slices
// are immutable — slot reuse replaces the pointer, never the bytes.
func (r *Ring) FramesSince(from int64) (frames [][]byte, dropped int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if from < 0 {
		from = 0
	}
	oldest := r.next - int64(r.n)
	if from < oldest {
		dropped = oldest - from
		from = oldest
	}
	if from >= r.next {
		return nil, dropped
	}
	frames = make([][]byte, 0, r.next-from)
	for i := int(from - oldest); i < r.n; i++ {
		slot := (r.start + i) % len(r.buf)
		if r.wire[slot] == nil {
			b, err := json.Marshal(r.buf[slot])
			if err != nil {
				// Event marshals from plain fields; this cannot happen.
				b = []byte("{}")
			}
			r.wire[slot] = append(b, '\n')
		}
		frames = append(frames, r.wire[slot])
	}
	return frames, dropped
}

// Next returns the sequence number the next appended event will get.
func (r *Ring) Next() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// NextAppend returns a channel that is closed by the next Append, once the
// event is stored: take it, read (FramesSince), and only if the read found
// nothing new wait on it — an Append in between closes a channel already
// held. No channel exists while nobody has asked for one, and all who ask
// before the next Append share one.
func (r *Ring) NextAppend() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.grown == nil {
		r.grown = make(chan struct{})
	}
	return r.grown
}

// Tracer stamps lifecycle events for one tenant into its ring. The zero
// value (nil ring) is a no-op tracer, so untraced code paths cost one nil
// check. Cmd ids are assigned by Begin.
type Tracer struct {
	ring    *Ring
	clock   Clock
	nextCmd atomic.Int64
}

// NewTracer creates a tracer writing to ring with timestamps from clock.
func NewTracer(ring *Ring, clock Clock) *Tracer {
	if clock == nil {
		clock = Real{}
	}
	return &Tracer{ring: ring, clock: clock}
}

// Begin opens a traced command: it assigns the next Cmd id, emits the
// StageSubmit event, and returns the id and the submit instant that later
// stages measure their DurNs from.
func (t *Tracer) Begin(tenant, op, task, at string) (cmd int64, start time.Time) {
	if t == nil || t.ring == nil {
		return 0, time.Time{}
	}
	start = t.clock.Now()
	cmd = t.nextCmd.Add(1)
	t.ring.Append(Event{
		T: start.UnixNano(), Tenant: tenant, Cmd: cmd,
		Op: op, Stage: StageSubmit, Task: task, At: at,
	})
	return cmd, start
}

// Stage emits one lifecycle stage for the command opened by Begin, with
// DurNs measured from the submit instant.
func (t *Tracer) Stage(tenant string, cmd int64, start time.Time, op, stage, errMsg string) {
	if t == nil || t.ring == nil || cmd == 0 {
		return
	}
	now := t.clock.Now()
	t.ring.Append(Event{
		T: now.UnixNano(), Tenant: tenant, Cmd: cmd,
		Op: op, Stage: stage, DurNs: now.Sub(start).Nanoseconds(), Err: errMsg,
	})
}

// Dispatch emits the one StageDispatch event of a command that decided:
// its decisions are dispatch-log entries dseq … dseq+count−1, and lag is
// the worst tardiness among them. The caller emits it after the command's
// last decision, so decisions cost the trace one clock read and one event
// per command, whatever their number.
func (t *Tracer) Dispatch(tenant string, cmd int64, start time.Time, op string, dseq, count int64, lag string) {
	if t == nil || t.ring == nil {
		return
	}
	now := t.clock.Now()
	ev := Event{
		T: now.UnixNano(), Tenant: tenant, Cmd: cmd, Op: op, Stage: StageDispatch,
		DSeq: dseq, Count: count, Lag: lag,
	}
	if cmd != 0 {
		ev.DurNs = now.Sub(start).Nanoseconds()
	}
	t.ring.Append(ev)
}

// Ring returns the tracer's ring (nil for a no-op tracer).
func (t *Tracer) Ring() *Ring {
	if t == nil {
		return nil
	}
	return t.ring
}

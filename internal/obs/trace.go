package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"time"
	"unsafe"

	"desyncpfair/internal/rat"
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

// record is what a Ring holds per retained event: 64 bytes and no Go
// pointers, so a ring is one flat slice the GC never scans. Seq is the
// record's position in the ring and Tenant the ring's own; the strings are
// indexes into the ring's string table (0 = ""); at or lag — an event has
// one or the other — is held as its exact numerator and denominator, the
// sign of den telling which.
type record struct {
	t, cmd, durNs, dseq, count int64
	num, den                   int64 // den > 0: At = num/den; den < 0: Lag = num/−den; 0: neither
	op, stage, task, err       uint16
}

const (
	recordBytes = int(unsafe.Sizeof(record{}))
	// minRingSlots is a ring's first allocation; it doubles from there up
	// to the ring's capacity, so a ring costs what it holds.
	minRingSlots = 16
	// maxRingCap bounds a ring's capacity, so the string table fits a
	// record's 16-bit indexes (see compact).
	maxRingCap = 1 << 13
)

// Ring retains the most recent trace events of one tenant in a bounded
// ring buffer and wakes followers when new events land (NextAppend). It is
// safe for concurrent use. Sequence numbers are assigned as events land and
// are never reused; once the ring wraps, the oldest events are dropped and
// AppendFrames reports how many the caller missed.
//
// A retained event costs one 64-byte record. The record slice starts at
// minRingSlots and doubles up to the capacity; the strings the records
// name live once each in a string table, which compaction keeps to what
// retained records still name (intern).
type Ring struct {
	tenant string // every event's Tenant; immutable
	max    int    // retention in events

	mu    sync.Mutex
	recs  []record // grows by doubling while n < max; a ring once len == max
	start int      // index of the oldest retained record (0 until full)
	n     int      // retained count
	next  int64    // next sequence number to assign
	// strs is the string table, strs[0] = "", and index its inverse. A
	// reader takes strs under mu and indexes it after: entries are never
	// rewritten in place (compaction builds a new table).
	strs  []string
	index map[string]uint16
	limit int // len(strs) that triggers the next compaction
	// grown is what NextAppend hands out: nil until somebody asks, closed
	// and forgotten by the next append.
	grown chan struct{}
}

// NewRing creates tenant's ring retaining up to capacity events (at least
// 1, at most 8192). It allocates no record until the first event lands.
func NewRing(tenant string, capacity int) *Ring {
	capacity = min(max(capacity, 1), maxRingCap)
	return &Ring{tenant: tenant, max: capacity, strs: []string{""}, limit: 1 + max(capacity, 64)}
}

// add stores rec with its strings interned, evicting the oldest record if
// the ring is full and growing it if it is not yet at capacity, wakes
// followers, and returns the record's Seq.
func (r *Ring) add(rec record, op, stage, task, err string) int64 {
	r.mu.Lock()
	if len(r.strs)+4 > r.limit {
		r.compact()
	}
	rec.op, rec.stage, rec.task, rec.err = r.intern(op), r.intern(stage), r.intern(task), r.intern(err)
	if r.n == len(r.recs) && len(r.recs) < r.max {
		// Not full yet, so nothing was evicted and start is 0: the records
		// are recs[:n] in order.
		grown := make([]record, min(max(2*len(r.recs), minRingSlots), r.max))
		copy(grown, r.recs)
		r.recs = grown
	}
	if r.n == len(r.recs) {
		r.recs[r.start] = rec
		r.start = (r.start + 1) % len(r.recs)
	} else {
		r.recs[r.n] = rec
		r.n++
	}
	seq := r.next
	r.next++
	if r.grown != nil {
		close(r.grown)
		r.grown = nil
	}
	r.mu.Unlock()
	return seq
}

// intern returns s's index in the string table, adding it if new. Caller
// holds mu, and add has left room for four new entries.
func (r *Ring) intern(s string) uint16 {
	if s == "" {
		return 0
	}
	if i, ok := r.index[s]; ok {
		return i
	}
	if r.index == nil {
		r.index = make(map[string]uint16)
	}
	i := uint16(len(r.strs))
	r.strs = append(r.strs, s)
	r.index[s] = i
	return i
}

// compact rebuilds the string table from the retained records, so it
// holds only the strings they name: at most four per record, so at most
// 4·maxRingCap + 1 = 2¹⁵ + 1 entries, about half of the 2¹⁶ a record's
// index reaches. The next compaction waits until the table has grown by
// its live size or the ring's capacity, whichever is more (and at most to
// 2¹⁶ entries), so a compaction's O(retained) walk is paid for by as many
// new strings. Caller holds mu.
func (r *Ring) compact() {
	old := r.strs
	r.strs = []string{""}
	clear(r.index)
	for k := 0; k < r.n; k++ {
		rec := &r.recs[(r.start+k)%len(r.recs)]
		rec.op = r.intern(old[rec.op])
		rec.stage = r.intern(old[rec.stage])
		rec.task = r.intern(old[rec.task])
		rec.err = r.intern(old[rec.err])
	}
	live := len(r.strs)
	r.limit = min(live+max(live, r.max, 64), 1<<16)
}

// AppendFrames appends to b the NDJSON frames of up to limit retained
// events, from the oldest with Seq ≥ from on — each json.Marshal of the
// event + '\n' — and returns the extended buffer, how many frames it
// appended, and how many events with Seq ≥ from were already evicted (a
// follower that asked for history the ring no longer holds learns it
// skipped, rather than silently missing it): the next read starts at
// from + dropped + n. The records are copied under the lock and rendered
// after it, so a reader never holds up an append for longer than a copy.
func (r *Ring) AppendFrames(b []byte, from int64, limit int) (_ []byte, n int, dropped int64) {
	r.mu.Lock()
	from = max(from, 0)
	oldest := r.next - int64(r.n)
	if from < oldest {
		dropped = oldest - from
		from = oldest
	}
	if from >= r.next {
		r.mu.Unlock()
		return b, 0, dropped
	}
	recs := make([]record, min(r.next-from, int64(limit)))
	i := (r.start + int(from-oldest)) % len(r.recs)
	copy(recs[copy(recs, r.recs[i:]):], r.recs)
	strs := r.strs
	r.mu.Unlock()

	// An Encoder writes json.Marshal's bytes and the newline, HTML escaping
	// included, straight into the buffer.
	buf := bytes.NewBuffer(b)
	enc := json.NewEncoder(buf)
	ev := new(Event)
	for k := range recs {
		*ev = r.event(from+int64(k), &recs[k], strs)
		if err := enc.Encode(ev); err != nil {
			// Event marshals from plain fields; this cannot happen.
			buf.WriteString("{}\n")
		}
	}
	return buf.Bytes(), len(recs), dropped
}

// event renders rec, the event with sequence number seq, back into the
// Event that was recorded; strs is the string table its indexes name.
func (r *Ring) event(seq int64, rec *record, strs []string) Event {
	ev := Event{
		Seq: seq, T: rec.t, Tenant: r.tenant, Cmd: rec.cmd,
		Op: strs[rec.op], Stage: strs[rec.stage], Task: strs[rec.task], Err: strs[rec.err],
		DSeq: rec.dseq, Count: rec.count, DurNs: rec.durNs,
	}
	switch {
	case rec.den > 0:
		ev.At = rat.New(rec.num, rec.den).String()
	case rec.den < 0:
		ev.Lag = rat.New(rec.num, -rec.den).String()
	}
	return ev
}

// Bytes is the ring's retained storage: 64 bytes per record slot, plus the
// string table's — each entry's bytes, 16 for its slot in the table and 32
// for its index entry (the map's own bucket overhead is not counted).
func (r *Ring) Bytes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := cap(r.recs)*recordBytes + cap(r.strs)*16
	for _, s := range r.strs[1:] {
		b += len(s) + 32
	}
	return b
}

// Next returns the sequence number the next appended event will get.
func (r *Ring) Next() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// NextAppend returns a channel that is closed by the next append, once the
// event is stored: take it, read (AppendFrames), and only if the read found
// nothing new wait on it — an append in between closes a channel already
// held. No channel exists while nobody has asked for one, and all who ask
// before the next append share one.
func (r *Ring) NextAppend() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.grown == nil {
		r.grown = make(chan struct{})
	}
	return r.grown
}

// Tracer stamps lifecycle events for one tenant into its ring and keeps
// the open command: the one Begin opened last, which Stage and Dispatch
// report on. It has one writer, the tenant's loop. Virtual times are
// passed exact and rendered only when a reader asks for the frame.
type Tracer struct {
	ring  *Ring
	clock Clock
	// cmd is the open command's id, monotone from 1 (0 until the first
	// Begin); op is its op and start its submit instant, which later
	// stages measure their DurNs from.
	cmd   int64
	op    string
	start time.Time
}

// NewTracer creates a tracer writing to ring with timestamps from clock.
func NewTracer(ring *Ring, clock Clock) *Tracer {
	if clock == nil {
		clock = Real{}
	}
	return &Tracer{ring: ring, clock: clock}
}

// Begin opens the next traced command and emits its StageSubmit event —
// at, if not nil, is the virtual time the command names.
func (t *Tracer) Begin(op, task string, at *rat.Rat) {
	t.start = t.clock.Now()
	t.cmd++
	t.op = op
	rec := record{t: t.start.UnixNano(), cmd: t.cmd}
	if at != nil {
		rec.num, rec.den = at.Num(), at.Den()
	}
	t.ring.add(rec, op, StageSubmit, task, "")
}

// Stage emits one lifecycle stage of the open command, with DurNs measured
// from its submit instant; a non-nil err fails the command at stage, and
// no further stage follows for it. Before any Begin it emits nothing.
func (t *Tracer) Stage(stage string, err error) {
	if t.cmd == 0 {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	now := t.clock.Now()
	t.ring.add(record{t: now.UnixNano(), cmd: t.cmd, durNs: now.Sub(t.start).Nanoseconds()}, t.op, stage, "", msg)
}

// Dispatch emits the one StageDispatch event of the open command, which
// decided: its decisions are dispatch-log entries dseq … dseq+count−1,
// and lag is the worst tardiness among them. The caller emits it after the
// command's last decision, so decisions cost the trace one clock read and
// one event per command, whatever their number. Before any Begin the event
// carries cmd 0 and no duration.
func (t *Tracer) Dispatch(dseq, count int64, lag rat.Rat) {
	now := t.clock.Now()
	rec := record{t: now.UnixNano(), cmd: t.cmd, dseq: dseq, count: count, num: lag.Num(), den: -lag.Den()}
	if t.cmd != 0 {
		rec.durNs = now.Sub(t.start).Nanoseconds()
	}
	t.ring.add(rec, t.op, StageDispatch, "", "")
}

// Ring returns the tracer's ring.
func (t *Tracer) Ring() *Ring { return t.ring }

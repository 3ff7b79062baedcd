package obs

import (
	"encoding/json"
	"strconv"
	"sync"
	"sync/atomic"
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
// safe for concurrent use. Sequence numbers are assigned on Append and
// never reused; once the ring wraps, the oldest events are dropped and
// FramesSince reports how many the caller missed.
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
	// and forgotten by the next Append.
	grown chan struct{}
}

// NewRing creates tenant's ring retaining up to capacity events (at least
// 1, at most 8192). It allocates no record until the first Append.
func NewRing(tenant string, capacity int) *Ring {
	capacity = min(max(capacity, 1), maxRingCap)
	return &Ring{tenant: tenant, max: capacity, strs: []string{""}, limit: 1 + max(capacity, 64)}
}

// Append stores ev — its Seq is assigned, not read — wakes followers, and
// returns the assigned Seq. A record holds the events a Tracer builds:
// ev.Tenant must be the ring's, and At and Lag, at most one of them set,
// exact rationals as rat.Rat renders them. Append panics on any other
// event, which it could not render back byte for byte.
func (r *Ring) Append(ev Event) int64 {
	if ev.Tenant != r.tenant {
		panic("obs: event of tenant " + strconv.Quote(ev.Tenant) + " appended to the ring of " + strconv.Quote(r.tenant))
	}
	rec := record{t: ev.T, cmd: ev.Cmd, durNs: ev.DurNs, dseq: ev.DSeq, count: ev.Count}
	switch {
	case ev.At != "" && ev.Lag != "":
		panic("obs: event has both at and lag")
	case ev.At != "":
		q := exact(ev.At)
		rec.num, rec.den = q.Num(), q.Den()
	case ev.Lag != "":
		q := exact(ev.Lag)
		rec.num, rec.den = q.Num(), -q.Den()
	}
	return r.add(rec, ev.Op, ev.Stage, ev.Task, ev.Err)
}

// exact parses s, which must be a rational in the form rat.Rat renders.
func exact(s string) rat.Rat {
	q, err := rat.Parse(s)
	if err != nil || q.String() != s {
		panic("obs: " + strconv.Quote(s) + " is not an exact rational as rat.Rat renders it")
	}
	return q
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

// FramesSince returns each retained event with Seq ≥ from as its NDJSON
// frame — json.Marshal of the event + '\n', identical to what a
// json.Encoder would emit — plus how many events with Seq ≥ from were
// already evicted (a follower that asked for history the ring no longer
// holds learns it skipped, rather than silently missing it). The records
// are copied under the lock and rendered after it, so a reader never
// holds up Append for longer than a copy.
func (r *Ring) FramesSince(from int64) (frames [][]byte, dropped int64) {
	r.mu.Lock()
	if from < 0 {
		from = 0
	}
	oldest := r.next - int64(r.n)
	if from < oldest {
		dropped = oldest - from
		from = oldest
	}
	if from >= r.next {
		r.mu.Unlock()
		return nil, dropped
	}
	recs := make([]record, r.next-from)
	i := (r.start + int(from-oldest)) % len(r.recs)
	copy(recs[copy(recs, r.recs[i:]):], r.recs)
	strs := r.strs
	r.mu.Unlock()

	frames = make([][]byte, len(recs))
	for k := range recs {
		b, err := json.Marshal(r.event(from+int64(k), &recs[k], strs))
		if err != nil {
			// Event marshals from plain fields; this cannot happen.
			b = []byte("{}")
		}
		frames[k] = append(b, '\n')
	}
	return frames, dropped
}

// event renders rec, the event with sequence number seq, back into the
// Event that was appended; strs is the string table its indexes name.
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
// check. Cmd ids are assigned by Begin. Virtual times are passed exact and
// rendered only when a reader asks for the frame.
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
// StageSubmit event — at, if not nil, is the virtual time the command
// names — and returns the id and the submit instant that later stages
// measure their DurNs from.
func (t *Tracer) Begin(op, task string, at *rat.Rat) (cmd int64, start time.Time) {
	if t == nil || t.ring == nil {
		return 0, time.Time{}
	}
	start = t.clock.Now()
	cmd = t.nextCmd.Add(1)
	rec := record{t: start.UnixNano(), cmd: cmd}
	if at != nil {
		rec.num, rec.den = at.Num(), at.Den()
	}
	t.ring.add(rec, op, StageSubmit, task, "")
	return cmd, start
}

// Stage emits one lifecycle stage for the command opened by Begin, with
// DurNs measured from the submit instant.
func (t *Tracer) Stage(cmd int64, start time.Time, op, stage, errMsg string) {
	if t == nil || t.ring == nil || cmd == 0 {
		return
	}
	now := t.clock.Now()
	t.ring.add(record{t: now.UnixNano(), cmd: cmd, durNs: now.Sub(start).Nanoseconds()}, op, stage, "", errMsg)
}

// Dispatch emits the one StageDispatch event of a command that decided:
// its decisions are dispatch-log entries dseq … dseq+count−1, and lag is
// the worst tardiness among them. The caller emits it after the command's
// last decision, so decisions cost the trace one clock read and one event
// per command, whatever their number.
func (t *Tracer) Dispatch(cmd int64, start time.Time, op string, dseq, count int64, lag rat.Rat) {
	if t == nil || t.ring == nil {
		return
	}
	now := t.clock.Now()
	rec := record{t: now.UnixNano(), cmd: cmd, dseq: dseq, count: count, num: lag.Num(), den: -lag.Den()}
	if cmd != 0 {
		rec.durNs = now.Sub(start).Nanoseconds()
	}
	t.ring.add(rec, op, StageDispatch, "", "")
}

// Ring returns the tracer's ring (nil for a no-op tracer).
func (t *Tracer) Ring() *Ring {
	if t == nil {
		return nil
	}
	return t.ring
}

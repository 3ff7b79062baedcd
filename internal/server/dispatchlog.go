package server

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"sort"

	"desyncpfair/internal/model"
	"desyncpfair/internal/rat"
)

// A tenant's dispatch log is kept in one of two forms, fixed when the
// tenant is built. A journaled tenant's log is the bytes its readers are
// served: each decision is encoded by Tenant.record straight into the tail
// of an append-only list of chunks, and the stream, the ?from replay, the
// sealed history files and the snapshot's inline tail are all cut from
// those bytes — and so is what the journal keeps of a command's decisions,
// a checksum of their frames. The one place that wants an event back
// (recovery verifying a journal written before the digest) decodes the one
// frame it asks for.
//
// A journaled tenant's log leaves memory a segment at a time: the tenant
// seals its resident frames into a history file (history.go, Tenant.seal)
// and drops their chunks, and a reader below the resident floor is served
// from the file. An in-memory tenant keeps
// every chunk, so its log is cold from its first frame: each decision is
// written as a compact record (putColdRecord), the open tail included, and
// every reader gets its frames rendered back by appendDispatchFrame, byte
// for byte what a wire log holds. A record leaves out what it can rebuild
// from the record before it, so a cold chunk is read forward from the
// nearest of its index points, one per coldStride records. A cold chunk
// carries the task table its records index, which gives each task's name
// and weight. A task enters it at registration, before its first record,
// so a published view of the tail, which carries the table as it stood
// then, names every task whose records the view holds.
//
// Both forms close a chunk at the same byte budget, chunkBytes, when the
// next entry might not fit: on wide_sched a wire chunk holds ≈ 600 frames,
// a cold one ≈ 14 500 records of ≈ 4.5 B.
//
// Frames are held as bytes, never as structs of strings, so the collector
// never scans them.

// chunkBytes is the capacity a chunk grows to before the next one starts.
// The first chunk of a log grows to it by doubling from minChunkBytes, so
// a tenant that dispatches little holds little.
const (
	chunkBytes    = 64 << 10
	minChunkBytes = 1 << 10
)

// coldStride is how many records of a cold chunk share one offset. The
// record at each index point — its place in the chunk a multiple of
// coldStride — is coded against a start of 0/1, so a read from any seq
// decodes forward from the index point at or below it, passing over at
// most coldStride-1 records.
const coldStride = 32

// chunk is a run of consecutive dispatch frames: contiguous NDJSON, and
// where in it each frame starts — or, in a cold chunk, their compact
// records, and where the record at each index point starts.
type chunk struct {
	first int64  // seq of the first frame
	n     int    // how many frames it holds
	data  []byte // the frames, each ending in '\n'; a cold chunk's records
	// offs[i] is where frame first+i starts in data; in a cold chunk,
	// where record first+i*coldStride does.
	offs []uint32
	// tasks is a cold chunk's task table, indexed by the executive's
	// Task.ID as its records are; nil in a wire chunk.
	tasks []logTask
}

// logTask is a task's entry in a log's task table: its name, and its
// weight e/p as the multiplier a cold record's subtask index is predicted
// by (windowRate).
type logTask struct {
	name string
	rate uint64
}

func (c *chunk) end() int64 { return c.first + int64(c.n) }

// cold reports whether c holds compact records rather than wire bytes.
func (c *chunk) cold() bool { return c.tasks != nil }

// span returns the bytes of frames i .. i+n-1 of a wire chunk.
func (c *chunk) span(i, n int) []byte {
	hi := len(c.data)
	if i+n < c.n {
		hi = int(c.offs[i+n])
	}
	return c.data[c.offs[i]:hi]
}

// appendWire appends the wire bytes of c's frames i .. i+n-1 to b: a span
// of a wire chunk, or a cold chunk's records rendered.
func (c *chunk) appendWire(b []byte, i, n int) []byte {
	if !c.cold() {
		return append(b, c.span(i, n)...)
	}
	k := i / coldStride
	d := coldDecoder{tasks: c.tasks, r: c.data[c.offs[k]:], at: k * coldStride}
	for d.at < i {
		d.next()
	}
	for ; n > 0; n-- {
		seq := c.first + int64(d.at)
		d.next()
		b = appendDispatchFrame(b, seq, c.tasks[d.id].name, d.index, d.proc,
			rat.New(d.sn, d.sd), rat.New(d.fn, d.fd), d.deadline, rat.New(d.tn, d.td))
	}
	return b
}

// A compact record is a header byte, then varints. The header's low bits
// flag the fields written out because a reader could not rebuild them, or
// left out because it can; its high nibble holds proc, coldProcWide
// meaning a uvarint follows.
const (
	coldStartAbs  = 1 << iota // start's denominator differs from the previous record's
	coldFinish                // finish ≠ start + 1
	coldTardy                 // tardiness ≠ 0
	coldStartSame             // start equals the previous record's: not written
	coldProcWide  = 15
)

// coldIndexEscape is the index code of a record whose index residual is
// written out: one that is not 0, −1 or +1, whose zig-zag codes 0, 1 and 2
// are the other index codes.
const coldIndexEscape = 3

// windowRate is the multiplier windowIndex predicts a task of weight w by:
// ⌊e·2³²/p⌋ for a weight in (0, 1), 2³² for one of at least 1, 0 for one
// that is not positive. It need not be exact, only the same when a record
// is written and when it is read.
func windowRate(w model.Weight) uint64 {
	switch {
	case w.E <= 0 || w.P <= 0:
		return 0
	case w.E >= w.P:
		return 1 << 32
	}
	q, _ := bits.Div64(uint64(w.E)>>32, uint64(w.E)<<32, uint64(w.P))
	return q
}

// windowIndex predicts the index of the subtask a task runs in slot t:
// ⌊t·e/p⌋ + 1, the one whose window (eqs. 2–5: r = θ + ⌊(i−1)·p/e⌋,
// d = θ + ⌈i·p/e⌉) holds t when θ = 0, computed from the task's
// windowRate by a multiply and a shift. A subtask that runs in its window
// is the prediction or the next one; a late one, or one of a task whose
// jobs came late, is further off.
func windowIndex(t int64, rate uint64) int64 {
	hi, lo := bits.Mul64(uint64(t), rate)
	return int64(hi<<32|lo>>32) + 1
}

// putColdRecord writes a decision's compact record at the start of b,
// which has room for maxColdRecord bytes, and returns its length. prev is
// the start of the chunk's previous record, 0/1 at an index point; rate is
// the task's windowRate. After the header (and a wide proc): the task's
// Task.ID as a uvarint; then start, unless coldStartSame, as the zig-zag
// varint delta of its numerator from prev's, or with coldStartAbs its
// numerator and denominator; finish, only with coldFinish; then one
// uvarint of the zig-zag of deadline less start's truncated integer part
// t, shifted left by two, and in those two bits the index code: the
// zig-zag of the residual index − windowIndex(t, rate) when that is 0, −1
// or +1, else coldIndexEscape. An escape is followed by the residual's
// zig-zag, which is at least 3, as a uvarint — or, if the shift dropped
// high bits, by those bits less one (0, 1 or 2) and then the residual as
// a zig-zag varint. Last, tardiness, only with coldTardy. A rat is
// written as its numerator and denominator in lowest terms, and every
// difference wraps as int64 arithmetic does, so any input round-trips.
// The seq is the record's place in its chunk.
func putColdRecord(b []byte, prev rat.Rat, id int, rate uint64, index int64, proc int, start, finish rat.Rat, deadline int64, tard rat.Rat) int {
	h := byte(min(uint(proc), coldProcWide)) << 4
	n := 1
	if h>>4 == coldProcWide {
		n += binary.PutUvarint(b[n:], uint64(proc))
	}
	n += binary.PutUvarint(b[n:], uint64(id))
	sn, sd := start.Num(), start.Den()
	switch {
	case sn == prev.Num() && sd == prev.Den():
		h |= coldStartSame
	case sd != prev.Den():
		h |= coldStartAbs
		n += binary.PutVarint(b[n:], sn)
		n += binary.PutVarint(b[n:], sd)
	default:
		n += binary.PutVarint(b[n:], sn-prev.Num())
	}
	if fn, fd := finish.Num(), finish.Den(); fn != sn+sd || fd != sd {
		h |= coldFinish
		n += binary.PutVarint(b[n:], fn)
		n += binary.PutVarint(b[n:], fd)
	}
	t := sn / sd
	due, res := zigzag(deadline-t), index-windowIndex(t, rate)
	code := zigzag(res)
	if code >= coldIndexEscape || due>>62 != 0 {
		code = coldIndexEscape
	}
	n += binary.PutUvarint(b[n:], due<<2|code)
	switch {
	case due>>62 != 0:
		n += binary.PutUvarint(b[n:], due>>62-1)
		n += binary.PutVarint(b[n:], res)
	case code == coldIndexEscape:
		n += binary.PutUvarint(b[n:], zigzag(res))
	}
	if tn, td := tard.Num(), tard.Den(); tn != 0 || td != 1 {
		h |= coldTardy
		n += binary.PutVarint(b[n:], tn)
		n += binary.PutVarint(b[n:], td)
	}
	b[0] = h
	return n
}

// maxColdRecord bounds a compact record: the header and eleven varints.
const maxColdRecord = 1 + 11*binary.MaxVarintLen64

// zigzag maps a signed value to an unsigned one as a zig-zag varint does:
// 0, −1, +1, −2 … to 0, 1, 2, 3 …
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// coldDecoder reads a cold chunk's records in order from an index point,
// each into its fields, rebuilding what putColdRecord left out. The
// records are the log's own, so they are never malformed.
type coldDecoder struct {
	tasks    []logTask // the chunk's task table
	r        []byte
	at       int // the next record's place in its chunk
	id       uint64
	index    int64
	proc     int
	sn, sd   int64 // start; what the next record's is coded against
	fn, fd   int64 // finish
	deadline int64
	tn, td   int64 // tardiness
}

func (d *coldDecoder) next() {
	if d.at%coldStride == 0 {
		d.sn, d.sd = 0, 1
	}
	d.at++
	h := d.r[0]
	d.r = d.r[1:]
	d.proc = int(h >> 4)
	if d.proc == coldProcWide {
		d.proc = int(d.uint())
	}
	d.id = d.uint()
	switch {
	case h&coldStartSame != 0:
	case h&coldStartAbs != 0:
		d.sn, d.sd = d.int(), d.int()
	default:
		d.sn += d.int()
	}
	d.fn, d.fd = d.sn+d.sd, d.sd
	if h&coldFinish != 0 {
		d.fn, d.fd = d.int(), d.int()
	}
	t, v := d.sn/d.sd, d.uint()
	due, res := v>>2, unzigzag(v&3)
	if v&3 == coldIndexEscape {
		if w := d.uint(); w >= coldIndexEscape {
			res = unzigzag(w)
		} else {
			due |= (w + 1) << 62
			res = d.int()
		}
	}
	d.deadline = unzigzag(due) + t
	d.index = res + windowIndex(t, d.tasks[d.id].rate)
	d.tn, d.td = 0, 1
	if h&coldTardy != 0 {
		d.tn, d.td = d.int(), d.int()
	}
}

func (d *coldDecoder) uint() uint64 {
	v, n := binary.Uvarint(d.r)
	d.r = d.r[n:]
	return v
}

func (d *coldDecoder) int() int64 {
	v, n := binary.Varint(d.r)
	d.r = d.r[n:]
	return v
}

// dispatchLog is a tenant's dispatch history: the manifest of its sealed
// prefix, on disk only, and the resident frames after it — closed chunks,
// then the open tail the loop appends to. The loop owns it; tenantSnap
// publishes a copy of the struct, which is an immutable view because
// everything the loop does afterwards lands past the lengths the copy
// holds (frames appended to the tail's arrays, the tail appended to full,
// names appended to the table) or in a fresh array (dropping sealed
// chunks) — the aliasing rule slices of the log were always published
// under. A journaled log holds wire chunks only, a cold one cold chunks
// only.
type dispatchLog struct {
	hist     []histSegment
	full     []chunk
	tail     chunk
	resident int64 // bytes held by full and tail: wire bytes, or records
	// cold, fixed when the tenant is built, makes the log hold compact
	// records; open says the manifest's last entry is the open history
	// segment the next seal appends to (Tenant.seal); tasks is the task
	// table, by Task.ID, which every cold chunk carries and restore
	// resolves a journaled log's events by; start is the start of the
	// tail's last record, which the next is coded against.
	cold  bool
	open  bool
	tasks []logTask
	start rat.Rat
}

// floor is the seq of the first resident frame: everything below it is in
// the files hist names.
func (l *dispatchLog) floor() int64 { return sealedEvents(l.hist) }

// len is the number of decisions ever logged — the seq the next one gets.
func (l *dispatchLog) len() int64 { return l.tail.end() }

// name enters the task with executive ID id, its name and weight, in the
// log's task table, which the executive's dense IDs fill in registration
// order.
func (l *dispatchLog) name(id int, name string, w model.Weight) {
	for len(l.tasks) <= id {
		l.tasks = append(l.tasks, logTask{})
	}
	l.tasks[id] = logTask{name, windowRate(w)}
	if l.cold {
		l.tail.tasks = l.tasks
	}
}

// append logs one decision of the task with executive ID id as the next
// frame of the tail: its compact record in a cold log, its wire bytes in
// any other.
func (l *dispatchLog) append(id int, task string, index int64, proc int, start, finish rat.Rat, deadline int64, tard rat.Rat) {
	need := maxFrameBytes(len(task))
	if l.cold {
		need = maxColdRecord
	}
	l.room(need)
	t := &l.tail
	at := len(t.data)
	if !l.cold {
		t.data = appendDispatchFrame(t.data, t.end(), task, index, proc, start, finish, deadline, tard)
		t.offs = append(t.offs, uint32(at))
	} else {
		prev := l.start
		if t.n%coldStride == 0 {
			prev = rat.Zero
			t.offs = append(t.offs, uint32(at))
		}
		t.data = t.data[:at+putColdRecord(t.data[at:at+maxColdRecord], prev, id, l.tasks[id].rate, index, proc, start, finish, deadline, tard)]
		l.start = start
	}
	t.n++
	l.resident += int64(len(t.data) - at)
}

// restore logs a decoded event — one of a snapshot's inline tail — as the
// next frame, which it must be. Only a journaled tenant restores; ids maps
// each of its task names to an executive ID the name table gives it.
func (l *dispatchLog) restore(ev DispatchEvent, ids map[string]int) error {
	if ev.Seq != l.len() {
		return fmt.Errorf("seq %d at position %d", ev.Seq, l.len())
	}
	id, ok := ids[ev.Task]
	if !ok {
		return fmt.Errorf("seq %d: the tenant has no task %q", ev.Seq, ev.Task)
	}
	var r [3]rat.Rat
	for i, s := range []string{ev.Start, ev.Finish, ev.Tardiness} {
		var err error
		if r[i], err = rat.Parse(s); err != nil {
			return fmt.Errorf("seq %d: %v", ev.Seq, err)
		}
	}
	l.append(id, ev.Task, ev.Index, ev.Proc, r[0], r[1], ev.Deadline, r[2])
	return nil
}

// taskIDs maps each name in the log's table to an executive ID it has:
// what restore resolves an event's task by.
func (l *dispatchLog) taskIDs() map[string]int {
	ids := make(map[string]int, len(l.tasks))
	for id, task := range l.tasks {
		ids[task.name] = id
	}
	return ids
}

// room makes the tail able to take need more bytes in place: a young tail
// doubles, one that would outgrow chunkBytes is closed, and the next one,
// which starts at its predecessor's size, grows only if need is larger.
func (l *dispatchLog) room(need int) {
	t := &l.tail
	if cap(t.data)-len(t.data) >= need {
		return
	}
	if len(t.data) > 0 && len(t.data)+need > chunkBytes {
		l.cut()
		if cap(t.data) >= need {
			return
		}
	}
	size := max(min(max(2*cap(t.data), minChunkBytes), chunkBytes), len(t.data)+need)
	t.data = append(make([]byte, 0, size), t.data...)
}

// cut closes the tail: its frames join the closed chunks, immutable from
// here on, and the next frame starts a new chunk, with room for about as
// many offsets as this one took and for as many bytes as it closed at, up
// to chunkBytes — so a tail a seal cuts does not regrow from
// minChunkBytes.
func (l *dispatchLog) cut() {
	c := l.tail
	if c.n == 0 {
		return
	}
	l.full = append(l.full, c)
	l.tail = chunk{
		first: c.end(),
		data:  make([]byte, 0, min(cap(c.data), chunkBytes)),
		offs:  make([]uint32, 0, len(c.offs)+len(c.offs)/8),
	}
	if l.cold {
		l.tail.tasks = l.tasks
	}
}

// dropSealed installs hist, a manifest extended over resident chunks whose
// history file is durable, and drops those chunks. The kept ones move to a
// fresh array: published views still alias the old one.
func (l *dispatchLog) dropSealed(hist []histSegment) {
	l.hist = hist
	k := 0
	for k < len(l.full) && l.full[k].end() <= l.floor() {
		l.resident -= int64(len(l.full[k].data))
		k++
	}
	l.full = append([]chunk(nil), l.full[k:]...)
}

// frames returns the wire bytes of up to limit consecutive resident frames
// from seq pos on — as many as one chunk holds — and how many they are: 0
// when pos is below the floor or at the end of the log. The bytes of a
// wire chunk are returned by reference; a cold chunk's are rendered into
// *buf, the caller's own buffer, which never holds a chunk's bytes.
func (l *dispatchLog) frames(buf *[]byte, pos int64, limit int) ([]byte, int) {
	c := &l.tail
	if pos < c.first {
		i := sort.Search(len(l.full), func(i int) bool { return l.full[i].end() > pos })
		if i == len(l.full) {
			return nil, 0
		}
		c = &l.full[i]
	}
	if pos < c.first || pos >= c.end() {
		return nil, 0
	}
	i := int(pos - c.first)
	n := min(limit, c.n-i)
	if c.cold() {
		*buf = c.appendWire((*buf)[:0], i, n)
		return *buf, n
	}
	return c.span(i, n), n
}

// digest returns the dispatch digest of the frames from seq first to the
// end of the log — the one place that says what a digest is: how many they
// are, and a crc32 (IEEE) of their wire bytes, newlines included. sealed is
// the running crc of those of them below the floor, which the caller read
// from the history files; 0 when there are none, as for the frames a command
// has just appended.
func (l *dispatchLog) digest(first int64, sealed uint32) dispatchDigest {
	crc, pos := sealed, max(first, l.floor())
	var buf []byte
	for pos < l.len() {
		b, k := l.frames(&buf, pos, int(l.len()-pos))
		if k == 0 {
			break // never inside the resident log
		}
		crc = crc32.Update(crc, crc32.IEEETable, b)
		pos += int64(k)
	}
	return dispatchDigest{first: first, count: l.len() - first, crc: crc}
}

// chunks returns the resident frames by reference, the open tail last: a
// view under the aliasing rule above, since everything the loop does
// afterwards lands past the lengths it holds or in a fresh array.
func (l *dispatchLog) chunks() []chunk {
	if l.tail.n == 0 {
		return l.full
	}
	return append(l.full[:len(l.full):len(l.full)], l.tail)
}

// wireBytesOf is the number of bytes wire chunks hold.
func wireBytesOf(chunks []chunk) int {
	n := 0
	for i := range chunks {
		n += len(chunks[i].data)
	}
	return n
}

// appendArray appends the frames of wire chunks (at least one) to b as a
// snapshot carries an unsealed tail: a JSON array of events. A frame never
// holds a raw newline (JSON escapes it), so the array is the NDJSON with
// each terminator turned into the separator, and the last into the closing
// bracket — rewritten in b, never in the chunks, which readers share. It
// adds wireBytesOf(chunks)+1 bytes.
func appendArray(b []byte, chunks []chunk) []byte {
	at := len(b)
	b = append(b, '[')
	for i := range chunks {
		b = append(b, chunks[i].data...)
	}
	ndjsonToArray(b[at:])
	return b
}

// ndjsonToArray finishes a JSON array in place: b is '[' followed by one or
// more newline-terminated values.
func ndjsonToArray(b []byte) []byte {
	for i, c := range b {
		if c == '\n' {
			b[i] = ','
		}
	}
	b[len(b)-1] = ']'
	return b
}

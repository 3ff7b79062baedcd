package server

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"sort"

	"desyncpfair/internal/rat"
)

// A tenant's dispatch log is kept once, as the bytes its readers are
// served: each decision is encoded by Tenant.record straight into the tail
// of an append-only list of chunks, and the stream, the ?from replay, the
// sealed history files and the snapshot's inline tail are all cut from
// those bytes — and so is what the journal keeps of a command's decisions,
// a checksum of their frames. There is no struct form to keep beside them;
// the one place that wants an event back (recovery verifying a journal
// written before the digest) decodes the one frame it asks for.
//
// Chunks hold no pointers, so the collector never scans the log. A durable
// tenant's log leaves memory a segment at a time: the compaction that seals
// a range into a history file (history.go) drops its chunks once the
// snapshot naming the file is committed, and a reader below the resident
// floor is served from the file. An in-memory tenant keeps every chunk.

// chunkBytes is the capacity a chunk grows to before the next one starts.
// The first chunk of a log grows to it by doubling from minChunkBytes, so
// a tenant that dispatches little holds little.
const (
	chunkBytes    = 64 << 10
	minChunkBytes = 1 << 10
)

// chunk is a run of consecutive dispatch frames: contiguous NDJSON, and
// where in it each frame starts.
type chunk struct {
	first int64    // seq of the first frame
	data  []byte   // the frames, each ending in '\n'
	offs  []uint32 // offs[i] is where frame first+i starts in data
}

func (c *chunk) end() int64 { return c.first + int64(len(c.offs)) }

// dispatchLog is a tenant's dispatch history: the manifest of its sealed
// prefix, on disk only, and the resident frames after it — closed chunks,
// then the open tail the loop appends to. The loop owns it; tenantSnap
// publishes a copy of the struct, which is an immutable view because
// everything the loop does afterwards lands past the lengths the copy
// holds (frames appended to the tail's arrays, the tail appended to full)
// or in a fresh array (dropping sealed chunks) — the aliasing rule slices
// of the log were always published under.
type dispatchLog struct {
	hist     []histSegment
	full     []chunk
	tail     chunk
	resident int64 // wire bytes held by full and tail
}

// floor is the seq of the first resident frame: everything below it is in
// the files hist names.
func (l *dispatchLog) floor() int64 { return sealedEvents(l.hist) }

// len is the number of decisions ever logged — the seq the next one gets.
func (l *dispatchLog) len() int64 { return l.tail.end() }

// append encodes one decision as the next frame of the tail.
func (l *dispatchLog) append(task string, index int64, proc int, start, finish rat.Rat, deadline int64, tard rat.Rat) {
	l.room(maxFrameBytes(len(task)))
	t := &l.tail
	at := len(t.data)
	t.data = appendDispatchFrame(t.data, t.end(), task, index, proc, start, finish, deadline, tard)
	t.offs = append(t.offs, uint32(at))
	l.resident += int64(len(t.data) - at)
}

// restore logs a decoded event — one of a snapshot's inline tail — as the
// next frame, which it must be.
func (l *dispatchLog) restore(ev DispatchEvent) error {
	if ev.Seq != l.len() {
		return fmt.Errorf("seq %d at position %d", ev.Seq, l.len())
	}
	var r [3]rat.Rat
	for i, s := range []string{ev.Start, ev.Finish, ev.Tardiness} {
		var err error
		if r[i], err = rat.Parse(s); err != nil {
			return fmt.Errorf("seq %d: %v", ev.Seq, err)
		}
	}
	l.append(ev.Task, ev.Index, ev.Proc, r[0], r[1], ev.Deadline, r[2])
	return nil
}

// room makes the tail able to take need more bytes in place: a young tail
// doubles, one that would outgrow chunkBytes is closed and a full-sized
// one started.
func (l *dispatchLog) room(need int) {
	t := &l.tail
	if cap(t.data)-len(t.data) >= need {
		return
	}
	size := max(2*cap(t.data), minChunkBytes)
	if len(t.data) > 0 && len(t.data)+need > chunkBytes {
		l.cut()
		size = chunkBytes
	}
	size = max(min(size, chunkBytes), len(t.data)+need)
	t.data = append(make([]byte, 0, size), t.data...)
}

// cut closes the tail: its frames join the closed chunks, immutable from
// here on, and the next frame starts a new chunk, with room for about as
// many offsets as this one took.
func (l *dispatchLog) cut() {
	if n := len(l.tail.offs); n > 0 {
		l.full = append(l.full, l.tail)
		l.tail = chunk{first: l.tail.end(), offs: make([]uint32, 0, n+n/8)}
	}
}

// dropSealed installs hist, a manifest extended over resident chunks a
// committed snapshot now names, and drops those chunks. The kept ones move
// to a fresh array: published views still alias the old one.
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
// when pos is below the floor or at the end of the log.
func (l *dispatchLog) frames(pos int64, limit int) ([]byte, int) {
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
	n := min(limit, len(c.offs)-i)
	hi := len(c.data)
	if i+n < len(c.offs) {
		hi = int(c.offs[i+n])
	}
	return c.data[c.offs[i]:hi], n
}

// digest returns the dispatch digest of the frames from seq first to the
// end of the log — the one place that says what a digest is: how many they
// are, and a crc32 (IEEE) of their wire bytes, newlines included. sealed is
// the running crc of those of them below the floor, which the caller read
// from the history files; 0 when there are none, as for the frames a command
// has just appended.
func (l *dispatchLog) digest(first int64, sealed uint32) dispatchDigest {
	crc, pos := sealed, max(first, l.floor())
	for pos < l.len() {
		b, k := l.frames(pos, int(l.len()-pos))
		if k == 0 {
			break // never inside the resident log
		}
		crc = crc32.Update(crc, crc32.IEEETable, b)
		pos += int64(k)
	}
	return dispatchDigest{first: first, count: l.len() - first, crc: crc}
}

// inline renders the resident frames as a snapshot carries an unsealed
// tail: a JSON array of events. A frame never holds a raw newline (JSON
// escapes it), so the array is the NDJSON with each terminator turned into
// the separator, and the last into the closing bracket.
func (l *dispatchLog) inline() json.RawMessage {
	if l.resident == 0 {
		return nil
	}
	b := append(make([]byte, 0, l.resident+1), '[')
	for i := range l.full {
		b = append(b, l.full[i].data...)
	}
	return ndjsonToArray(append(b, l.tail.data...))
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

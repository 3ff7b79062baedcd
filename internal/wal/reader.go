package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
)

// Reader is a sequential, tailing view of the log's durable prefix, the
// substrate replication streams are served from. It decodes frames
// straight off the segment files but never emits a record beyond the
// durable LSN, so a follower can only ever observe state the leader could
// itself recover after a crash — an unsynced suffix, a torn frame, or a
// half-written group-commit batch is invisible by construction.
//
// A Reader is owned by one goroutine; the log itself may be appended to
// and compacted concurrently. When compaction folds the cursor's position
// into a snapshot, NextRaw returns ErrCompacted and the consumer must
// re-bootstrap from the snapshot.
type Reader struct {
	l        *Log
	next     uint64 // LSN of the next record to emit
	f        File
	segFirst uint64 // first LSN of the open segment (from its name)
	buf      []byte // undecoded carry-over bytes from the open segment
	off      int    // consumed prefix of buf
	scratch  []byte
}

// NewReader returns a reader positioned at LSN from (0 is treated as 1,
// the first LSN a log ever assigns).
func (l *Log) NewReader(from uint64) *Reader {
	if from == 0 {
		from = 1
	}
	return &Reader{l: l, next: from, scratch: make([]byte, 32<<10)}
}

// horizon snapshots the durability and compaction bounds.
func (l *Log) horizon() (durable, snap uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durableLSN, l.snapLSN
}

// RawFrame is one durable record in wire form: the exact JSON payload
// bytes appended to the log plus the frame header's CRC32-IEEE over those
// bytes. Payload is a copy the caller owns — the reader's carry buffer is
// reused across fills. Because the appender stamps LSN and Term before
// encoding, Payload is json.Marshal of the final Record, so consumers can
// ship it verbatim (and re-verify CRC) without ever re-encoding.
type RawFrame struct {
	LSN     uint64
	CRC     uint32
	Payload []byte
}

// NextRaw returns up to max frames in wire form starting at the cursor,
// advancing it; the stream is LSN-contiguous. An empty, nil-error result
// means nothing new is durable yet — wait on NextDurable and read again.
// ErrCompacted means the cursor's records were folded into a snapshot;
// other errors are environmental (reads through a failed filesystem) and
// the reader stays usable for a retry. The replication log server ships
// these bytes, already on disk, instead of re-marshaling every record for
// every follower.
func (r *Reader) NextRaw(max int) ([]RawFrame, error) {
	if max <= 0 {
		max = 1
	}
	durable, snap := r.l.horizon()
	if r.next <= snap {
		return nil, ErrCompacted
	}
	var out []RawFrame
	for len(out) < max && r.next <= durable {
		payload, crc, size, ok, err := r.rawOne()
		if err != nil {
			return out, err
		}
		if !ok {
			n, err := r.fill()
			if err != nil {
				return out, err
			}
			if n == 0 {
				hopped, err := r.hop()
				if err != nil {
					return out, err
				}
				if !hopped {
					// The durable bytes are not visible from here yet
					// (e.g. a concurrent compaction just rolled the
					// segment); the next call re-resolves.
					return out, nil
				}
			}
			continue
		}
		lsn, err := payloadLSN(payload)
		if err != nil {
			return out, err
		}
		r.off += size
		if lsn < r.next {
			continue // pre-cursor record in a shared segment
		}
		if lsn != r.next {
			return out, fmt.Errorf("wal: reader expected LSN %d, segment holds %d", r.next, lsn)
		}
		out = append(out, RawFrame{LSN: lsn, CRC: crc, Payload: append([]byte(nil), payload...)})
		r.next++
	}
	return out, nil
}

// payloadLSN extracts the record's LSN without a full decode. Frames are
// marshaled from Record, whose first field is `lsn`, so the payload always
// starts `{"lsn":<digits>`; anything else falls back to a full unmarshal.
func payloadLSN(payload []byte) (uint64, error) {
	const pfx = `{"lsn":`
	if len(payload) > len(pfx) && string(payload[:len(pfx)]) == pfx {
		v := uint64(0)
		i := len(pfx)
		start := i
		for i < len(payload) && payload[i] >= '0' && payload[i] <= '9' {
			v = v*10 + uint64(payload[i]-'0')
			i++
		}
		if i > start && i < len(payload) && (payload[i] == ',' || payload[i] == '}') {
			return v, nil
		}
	}
	var rec struct {
		LSN uint64 `json:"lsn"`
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return 0, fmt.Errorf("wal: reader hit an undecodable frame: %v", err)
	}
	return rec.LSN, nil
}

// rawOne locates the next complete, checksummed frame in the carry buffer
// without consuming it: the caller advances r.off by size on acceptance.
// ok=false means the buffer holds no such frame yet. A CRC mismatch is
// treated the same way: a frame below the durable horizon is never torn,
// but the buffered bytes may straddle an in-flight write of a later frame,
// which the next fill completes. The returned payload aliases r.buf and is
// only valid until the next fill.
func (r *Reader) rawOne() (payload []byte, crc uint32, size int, ok bool, err error) {
	b := r.buf[r.off:]
	if len(b) < frameHeader {
		return nil, 0, 0, false, nil
	}
	n := binary.LittleEndian.Uint32(b)
	crc = binary.LittleEndian.Uint32(b[4:])
	if n == 0 || n > maxPayload {
		return nil, 0, 0, false, fmt.Errorf("wal: reader hit a corrupt frame header (len %d)", n)
	}
	if len(b)-frameHeader < int(n) {
		return nil, 0, 0, false, nil
	}
	payload = b[frameHeader : frameHeader+int(n)]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, 0, 0, false, nil
	}
	return payload, crc, frameHeader + int(n), true, nil
}

// fill reads more bytes from the open segment into the carry buffer,
// opening the right segment for the cursor first if none is open.
// Returns the number of bytes gained.
func (r *Reader) fill() (int, error) {
	if r.f == nil {
		if err := r.openSegmentFor(r.next); err != nil {
			return 0, err
		}
		if r.f == nil {
			return 0, nil
		}
	}
	if r.off > 0 {
		r.buf = r.buf[:copy(r.buf, r.buf[r.off:])]
		r.off = 0
	}
	n, err := r.f.Read(r.scratch)
	if n > 0 {
		r.buf = append(r.buf, r.scratch[:n]...)
	}
	if err != nil && err != io.EOF {
		return n, err
	}
	return n, nil
}

// hop switches to a newer segment that covers the cursor, if one exists
// (compaction rolls the active segment; the exhausted old one never grows
// again). Reports whether it moved.
func (r *Reader) hop() (bool, error) {
	first, name, err := r.bestSegment(r.next)
	if err != nil {
		return false, err
	}
	if name == "" || (r.f != nil && first == r.segFirst) {
		return false, nil
	}
	if err := r.openSegment(first, name); err != nil {
		return false, err
	}
	return true, nil
}

// bestSegment picks the segment whose first LSN is the largest one ≤ lsn
// — the segment that contains lsn if any does.
func (r *Reader) bestSegment(lsn uint64) (first uint64, name string, err error) {
	names, err := r.l.fs.ReadDir(r.l.dir)
	if err != nil {
		return 0, "", err
	}
	for _, n := range names {
		f, ok := segmentFirst(n)
		if ok && f <= lsn && (name == "" || f > first) {
			first, name = f, n
		}
	}
	return first, name, nil
}

func (r *Reader) openSegmentFor(lsn uint64) error {
	first, name, err := r.bestSegment(lsn)
	if err != nil {
		return err
	}
	if name == "" {
		return nil // nothing on disk yet for this cursor
	}
	return r.openSegment(first, name)
}

func (r *Reader) openSegment(first uint64, name string) error {
	f, err := r.l.fs.Open(filepath.Join(r.l.dir, name))
	if err != nil {
		return err
	}
	if r.f != nil {
		r.f.Close()
	}
	r.f = f
	r.segFirst = first
	r.buf = r.buf[:0]
	r.off = 0
	return nil
}

// Close releases the open segment handle. The reader must not be used
// afterwards.
func (r *Reader) Close() {
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
}

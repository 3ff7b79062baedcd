package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"desyncpfair/internal/wal"
)

// Sealed dispatch history. A tenant's dispatch log only ever grows at its
// end, so neither a snapshot nor memory need hold all of it: a journaled
// tenant seals the frames since its last seal (Tenant.seal), appending
// them, exactly as ?from replay serves them, to its open history segment —
// a wal sidecar that only grows at its end — or starting one; its manifest
// entry grows with it, the tenant drops the frames from memory
// (dispatchLog.dropSealed), and a reader that asks for them is sent the
// file, up to the length its view of the manifest names. The next snapshot
// names that length; until one does, the bytes past the last named one
// cache decisions the journal still regenerates. A tenant seals at
// histSegmentMin unsealed events, and a checkpoint from half that on, so a
// busy tenant's snapshot carries no frames and each frame is written once;
// a younger tail rides inline. What a compaction encodes and fsyncs, and
// what a tenant keeps resident, are both bounded by the work since the
// previous seal; and a resident frame goes from its chunk to disk copied
// at most once — none for a sealed file, written from the chunks, once for
// an inline tail, written into the snapshot payload (marshalPayload).

// histSegment is one manifest entry: a sealed run of a tenant's dispatch
// log. File holds events FirstSeq … FirstSeq+Count-1 as its first Bytes
// bytes of NDJSON, whose IEEE CRC-32 is CRC; consecutive entries are
// seq-contiguous from 0. The file may be longer — an append past the entry
// a snapshot names, or one that failed — and what follows those bytes is
// no reader's.
type histSegment struct {
	File     string `json:"file"`
	FirstSeq int64  `json:"firstSeq"`
	Count    int64  `json:"count"`
	Bytes    int64  `json:"bytes"`
	CRC      uint32 `json:"crc32"`
}

// histSegmentMin is the fewest events a closed history segment holds: a
// tenant appends to its last segment until it does, so the manifest keeps
// one entry per this many events, plus one per restart. A journaled tenant
// seals once a command leaves this many unsealed (settle), so it never
// holds more, and a checkpoint seals from half this many on (image); a
// shorter unsealed tail rides in the snapshot, as the whole log used to,
// which keeps short-lived tenants off the sealing path entirely. A
// variable only so tests can seal short logs.
var histSegmentMin = 4096

// sealedEvents is the number of events a manifest covers.
func sealedEvents(hist []histSegment) int64 {
	if len(hist) == 0 {
		return 0
	}
	last := hist[len(hist)-1]
	return last.FirstSeq + last.Count
}

// sealSegment extends seg — the tenant's open segment, or a new one whose
// File and FirstSeq are set — over wire chunks (non-empty, seq-contiguous
// with it), continuing its CRC, and returns it with what its file gains:
// the chunks' bytes, what the stream served while they were resident,
// handed to the journal by reference, never gathered into one buffer.
func sealSegment(seg histSegment, chunks []chunk) (histSegment, [][]byte) {
	parts := make([][]byte, len(chunks))
	for i := range chunks {
		parts[i] = chunks[i].data
		seg.CRC = crc32.Update(seg.CRC, crc32.IEEETable, parts[i])
		seg.Bytes += int64(len(parts[i]))
	}
	seg.Count = chunks[len(chunks)-1].end() - seg.FirstSeq
	return seg, parts
}

// seal appends the tenant's resident dispatch frames, the open tail's
// included, to its open history segment — the manifest's last entry, while
// dispatchLog.open says so — or starts a new one, then cuts the tail and
// drops them all from memory: drainer only, or a stopped tenant. The
// segment closes once it holds histSegmentMin events. The bytes are durable
// — and a new file's directory entry — before the manifest names them, so
// the snapshot that names them next never names bytes a crash can take
// back; until one does, they cache decisions the journal still
// regenerates, which recovery ignores and, in a file no snapshot names,
// the boot compaction deletes. A seal truncates no journal segment. A
// failed write leaves the log as it was and closes the segment, whose
// file's length is now unknown: the next seal starts a new one, and so
// does a restored tenant's first. A tenant whose hooks name no journal
// (SetJournal) keeps its log.
func (t *Tenant) seal() error {
	h := t.hooks.Load()
	if h == nil || h.hist == nil {
		return nil
	}
	// A fresh manifest slice, the open entry replaced or one added:
	// published views hold the old one.
	hist, create := t.log.hist, !t.log.open
	n := len(hist)
	var seg histSegment
	if create {
		hist, seg = hist[:n:n], histSegment{File: h.hist.SidecarName(), FirstSeq: t.log.floor()}
	} else {
		hist, seg = hist[:n-1:n-1], hist[n-1]
	}
	seg, parts := sealSegment(seg, t.log.chunks())
	t.log.open = false
	if err := h.hist.AppendSidecar(seg.File, create, parts); err != nil {
		return err
	}
	t.log.cut()
	t.log.open = seg.Count < int64(histSegmentMin)
	t.log.dropSealed(append(hist, seg))
	return nil
}

// copyHistory streams the bytes hist names into w, exactly each entry's
// Bytes of its file, checking them against it — length, CRC, seq
// contiguity from 0 — and holding none of them in memory itself. A file
// longer than its entry is no damage (histSegment); a shorter one or
// another CRC is real damage, not a crash artifact, since those bytes were
// fsynced before any manifest named them.
func copyHistory(w io.Writer, l *wal.Log, id string, hist []histSegment) error {
	next := int64(0)
	for _, seg := range hist {
		if seg.FirstSeq != next {
			return fmt.Errorf("server: tenant %q history segment %s starts at seq %d, want %d", id, seg.File, seg.FirstSeq, next)
		}
		next += seg.Count
		f, err := l.OpenSidecar(seg.File)
		if err != nil {
			return fmt.Errorf("server: tenant %q history: %v", id, err)
		}
		sum := crc32.NewIEEE()
		n, err := io.Copy(io.MultiWriter(sum, w), io.LimitReader(f, seg.Bytes))
		f.Close()
		if err != nil {
			return fmt.Errorf("server: tenant %q history: %v", id, err)
		}
		if n != seg.Bytes || sum.Sum32() != seg.CRC {
			return fmt.Errorf("server: tenant %q history segment %s is corrupt", id, seg.File)
		}
	}
	return nil
}

// copySealed writes the sealed frames from seq pos to the end of hist
// straight from the history files, whose named prefixes hold exactly the
// bytes the stream carries, in blocks bounded like any other stream write.
// It reads each file only as far as hist names: a reader holding an older
// view of the manifest than the file's gets the rest from that view's
// resident chunks.
func (s *Server) copySealed(w io.Writer, hist []histSegment, pos int64) error {
	i := sort.Search(len(hist), func(i int) bool { return hist[i].FirstSeq+hist[i].Count > pos })
	for ; i < len(hist); i++ {
		f, err := s.wal.OpenSidecar(hist[i].File)
		if err != nil {
			return err
		}
		err = copyFrames(w, io.LimitReader(f, hist[i].Bytes), pos-hist[i].FirstSeq)
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// copyFrames writes r's NDJSON to w from its skip-th line on, at most a
// chunk's worth per write.
func copyFrames(w io.Writer, r io.Reader, skip int64) error {
	br := bufio.NewReaderSize(r, chunkBytes)
	for skip > 0 {
		switch _, err := br.ReadSlice('\n'); err {
		case nil:
			skip--
		case bufio.ErrBufferFull: // a frame longer than the buffer: the rest of it is next
		default:
			return err
		}
	}
	_, err := br.WriteTo(w)
	return err
}

// selfContained rewrites a snapshot payload so it names no history file:
// every manifest's frames are spliced back in front of its tenant's inline
// log, the form a follower bootstraps from (its data dir has none of the
// leader's files).
func selfContained(l *wal.Log, payload []byte) ([]byte, error) {
	var pay snapshotPayload
	if err := json.Unmarshal(payload, &pay); err != nil {
		return nil, fmt.Errorf("server: snapshot payload: %v", err)
	}
	sealed := false
	for i := range pay.Tenants {
		cp := &pay.Tenants[i]
		if len(cp.History) == 0 {
			continue
		}
		log := bytes.NewBuffer([]byte{'['})
		if err := copyHistory(log, l, cp.ID, cp.History); err != nil {
			return nil, err
		}
		inline := ndjsonToArray(log.Bytes())
		if len(cp.Log) > len("[]") {
			inline = append(append(inline[:len(inline)-1], ','), cp.Log[1:]...)
		}
		cp.History, cp.Log, sealed = nil, inline, true
	}
	if !sealed {
		return payload, nil
	}
	return json.Marshal(pay)
}

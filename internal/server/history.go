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
// tenant seals the frames since its last seal (Tenant.seal), writing them
// once, exactly as ?from replay serves them, to an immutable wal sidecar;
// from then on its manifest carries one entry for them, the tenant drops
// them from memory (dispatchLog.dropSealed), and a reader that asks for
// them is sent the file. The next snapshot names the file; until one does,
// it caches decisions the journal still regenerates. What a compaction
// encodes and fsyncs, and what a tenant keeps resident, are both bounded
// by the work since the previous seal; and what it copies is less: a
// resident frame goes from its chunk to disk copied at most once — none
// for a sealed file, written from the chunks, once for an inline tail,
// written into the snapshot payload (marshalPayload).

// histSegment is one manifest entry: a sealed run of a tenant's dispatch
// log. File holds events FirstSeq … FirstSeq+Count-1 as Bytes bytes of
// NDJSON whose IEEE CRC-32 is CRC; consecutive entries are seq-contiguous
// from 0.
type histSegment struct {
	File     string `json:"file"`
	FirstSeq int64  `json:"firstSeq"`
	Count    int64  `json:"count"`
	Bytes    int64  `json:"bytes"`
	CRC      uint32 `json:"crc32"`
}

// histSegmentMin is the fewest events worth a file of their own: a shorter
// unsealed tail rides in the snapshot, as the whole log used to. It bounds
// the manifest at one entry per this many events (and the inline tail
// below it), and keeps short-lived tenants off the sealing path entirely.
// A journaled tenant seals once a command leaves this many unsealed
// (settle), so it never holds more. A variable only so tests can seal
// short logs.
var histSegmentMin = 4096

// sealedEvents is the number of events a manifest covers.
func sealedEvents(hist []histSegment) int64 {
	if len(hist) == 0 {
		return 0
	}
	last := hist[len(hist)-1]
	return last.FirstSeq + last.Count
}

// sealSegment renders wire chunks (non-empty, seq-contiguous) as a sidecar
// called name and returns its manifest entry. The file is the chunks'
// bytes, what the stream served while they were resident, handed to the
// journal by reference: written from the chunks themselves, never
// gathered into one buffer first.
func sealSegment(name string, chunks []chunk) (histSegment, wal.Sidecar) {
	parts := make([][]byte, len(chunks))
	crc, size := uint32(0), 0
	for i := range chunks {
		parts[i] = chunks[i].data
		crc = crc32.Update(crc, crc32.IEEETable, parts[i])
		size += len(parts[i])
	}
	return histSegment{
		File:     name,
		FirstSeq: chunks[0].first,
		Count:    chunks[len(chunks)-1].end() - chunks[0].first,
		Bytes:    int64(size),
		CRC:      crc,
	}, wal.Sidecar{Name: name, Data: parts}
}

// seal writes the tenant's resident dispatch frames, the open tail's
// included, to a history file beside its journal, then cuts the tail and
// drops them all from memory: loop goroutine only, or a stopped tenant.
// The file is durable — its bytes and its directory entry fsynced — before
// the manifest names it, so the snapshot that names it next never names a
// file a crash can take back; until one does, it is a cache of decisions
// the journal still regenerates, which recovery ignores and the boot
// compaction deletes. A seal truncates no journal segment. A failed write
// leaves the log as it was; a tenant whose hooks name no journal
// (SetJournal) keeps its log.
func (t *Tenant) seal() error {
	h := t.hooks.Load()
	if h == nil || h.hist == nil {
		return nil
	}
	seg, file := sealSegment(h.hist.SidecarName(), t.log.chunks())
	if err := h.hist.WriteSidecars([]wal.Sidecar{file}); err != nil {
		return err
	}
	t.log.cut()
	// A fresh manifest slice: published views hold the old one.
	hist := t.log.hist
	t.log.dropSealed(append(hist[:len(hist):len(hist)], seg))
	return nil
}

// copyHistory streams the files hist names into w, checking them against
// it — length, CRC, seq contiguity from 0 — and holding none of them in
// memory itself. Like the snapshot a segment is written atomically, so
// damage here is real damage, not a crash artifact.
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
		n, err := io.Copy(io.MultiWriter(sum, w), f)
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
// straight from the history files, which hold exactly the bytes the stream
// carries, in blocks bounded like any other stream write.
func (s *Server) copySealed(w io.Writer, hist []histSegment, pos int64) error {
	i := sort.Search(len(hist), func(i int) bool { return hist[i].FirstSeq+hist[i].Count > pos })
	for ; i < len(hist); i++ {
		f, err := s.wal.OpenSidecar(hist[i].File)
		if err != nil {
			return err
		}
		err = copyFrames(w, f, pos-hist[i].FirstSeq)
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

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"desyncpfair/internal/wal"
)

// Sealed dispatch history. A tenant's dispatch log only ever grows at its
// end, so a snapshot need not repeat it: at compaction the events since
// the last seal are written once, as the NDJSON frames ?from replay serves,
// to an immutable wal sidecar, and from then on the snapshot carries one
// manifest entry for them. The log in memory stays whole — every read path
// is as it was — only what a compaction copies, encodes and fsyncs shrinks
// from the tenant's lifetime to the work since the previous one.

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
// A variable only so tests can seal short logs.
var histSegmentMin = 4096

// sealedEvents is the number of events a manifest covers.
func sealedEvents(hist []histSegment) int64 {
	if len(hist) == 0 {
		return 0
	}
	last := hist[len(hist)-1]
	return last.FirstSeq + last.Count
}

// sealSegment renders log (non-empty) as a sidecar called name and returns
// its manifest entry. frames is index-aligned with log: cached wire bytes
// are reused, the gaps are encoded here — either way each event is encoded
// once for egress and disk, and the bytes are what FramesSince serves.
func sealSegment(name string, log []DispatchEvent, frames [][]byte) (histSegment, wal.Sidecar) {
	data := make([]byte, 0, len(log)*160)
	for i := range log {
		if frames[i] != nil {
			data = append(data, frames[i]...)
		} else {
			data = append(appendDispatchJSON(data, &log[i]), '\n')
		}
	}
	return histSegment{
		File:     name,
		FirstSeq: log[0].Seq,
		Count:    int64(len(log)),
		Bytes:    int64(len(data)),
		CRC:      crc32.ChecksumIEEE(data),
	}, wal.Sidecar{Name: name, Data: data}
}

// inlineLog is the unsealed tail of a dispatch log as a snapshot carries
// it: a plain JSON array of events, encoded by appendDispatchJSON rather
// than by reflection — a tail below histSegmentMin is re-encoded by every
// compaction until it is sealed.
type inlineLog []DispatchEvent

func (l inlineLog) MarshalJSON() ([]byte, error) {
	b := append(make([]byte, 0, len(l)*160+2), '[')
	for i := range l {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendDispatchJSON(b, &l[i])
	}
	return append(b, ']'), nil
}

// inlineHistory loads the segments cp.History names and prepends their
// events to cp.Log, making it the tenant's whole dispatch log. Length, CRC
// and seq contiguity are checked: like the snapshot itself, a segment is
// written atomically, so damage here is real damage, not a crash artifact.
func inlineHistory(l *wal.Log, cp *tenantCheckpoint) error {
	if len(cp.History) == 0 {
		return nil
	}
	log := make([]DispatchEvent, 0, sealedEvents(cp.History)+int64(len(cp.Log)))
	for _, seg := range cp.History {
		data, err := l.ReadSidecar(seg.File)
		if err != nil {
			return fmt.Errorf("server: tenant %q history: %v", cp.ID, err)
		}
		if int64(len(data)) != seg.Bytes || crc32.ChecksumIEEE(data) != seg.CRC {
			return fmt.Errorf("server: tenant %q history segment %s is corrupt", cp.ID, seg.File)
		}
		if seg.FirstSeq != int64(len(log)) {
			return fmt.Errorf("server: tenant %q history segment %s starts at seq %d, want %d", cp.ID, seg.File, seg.FirstSeq, len(log))
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		for dec.More() {
			var ev DispatchEvent
			if err := dec.Decode(&ev); err != nil {
				return fmt.Errorf("server: tenant %q history segment %s: %v", cp.ID, seg.File, err)
			}
			log = append(log, ev)
		}
		if got := int64(len(log)) - seg.FirstSeq; got != seg.Count {
			return fmt.Errorf("server: tenant %q history segment %s holds %d events, want %d", cp.ID, seg.File, got, seg.Count)
		}
	}
	cp.Log = append(log, cp.Log...)
	return nil
}

// selfContained rewrites a snapshot payload so it names no history file:
// every manifest is loaded back into its tenant's inline log, the form a
// follower bootstraps from (its data dir has none of the leader's files).
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
		if err := inlineHistory(l, cp); err != nil {
			return nil, err
		}
		cp.History, sealed = nil, true
	}
	if !sealed {
		return payload, nil
	}
	return json.Marshal(pay)
}

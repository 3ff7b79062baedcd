package scenario

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"desyncpfair/internal/server"
)

// TraceVersion is the trace format version stamped into every header
// record; readers reject traces from a future format.
const TraceVersion = 1

// castagnoli is the CRC-32C table trace lines are framed with. (The WAL
// frames its records with the IEEE polynomial, crc32.ChecksumIEEE; the two
// formats share no reader.)
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record kinds. A trace is: one header, the arrival sequence, the
// dispatch sequence (grouped per client, in decision order), one end
// summary.
const (
	KindHeader   = "header"
	KindArrival  = "arrival"
	KindDispatch = "dispatch"
	KindEnd      = "end"
)

// Record is one NDJSON trace record. Field presence depends on Kind; the
// schema deliberately follows the trace ring's event shape (obs.Event:
// virtual times as exact rat strings, monotone sequence numbers, here per
// client) but carries no wall-clock time — a trace re-recorded from the
// same seed is byte-identical.
type Record struct {
	Kind string `json:"kind"`

	// Header fields.
	Version int   `json:"version,omitempty"`
	Spec    *Spec `json:"spec,omitempty"`

	// Arrival and dispatch fields.
	Client string `json:"client,omitempty"`
	Task   string `json:"task,omitempty"`
	Class  string `json:"class,omitempty"`
	// At is the arrival's virtual time (arrival records).
	At string `json:"at,omitempty"`

	// Dispatch fields, mirroring server.DispatchEvent: DSeq is the
	// decision's 0-based index within its client, Index the subtask index,
	// Start/Finish/Tardiness exact rat strings.
	DSeq      int64  `json:"dseq,omitempty"`
	Index     int64  `json:"index,omitempty"`
	Proc      int    `json:"proc,omitempty"`
	Start     string `json:"start,omitempty"`
	Finish    string `json:"finish,omitempty"`
	Deadline  int64  `json:"deadline,omitempty"`
	Tardiness string `json:"tardiness,omitempty"`

	// End-summary fields.
	Arrivals     int64       `json:"arrivals,omitempty"`
	Dispatches   int64       `json:"dispatches,omitempty"`
	MaxTardiness string      `json:"maxTardiness,omitempty"`
	Jain         string      `json:"jain,omitempty"`
	Classes      []ClassSumm `json:"classes,omitempty"`
}

// ClassSumm is the end record's per-SLO-class rollup.
type ClassSumm struct {
	Class        string `json:"class"`
	SLO          string `json:"slo"`
	Dispatches   int64  `json:"dispatches"`
	Violations   int64  `json:"violations"`
	MaxTardiness string `json:"maxTardiness"`
}

// frame is the CRC envelope of one trace line: C is the CRC-32C of the
// exact bytes of R. json.RawMessage preserves those bytes verbatim on
// decode, so verification does not depend on re-marshalling stability.
type frame struct {
	C string          `json:"c"`
	R json.RawMessage `json:"r"`
}

// EncodeTrace renders a record sequence as trace bytes: one CRC-checked
// NDJSON line per record, the CRC-32C of the record's JSON in hex beside
// it — what the golden tests byte-compare.
func EncodeTrace(recs []Record) ([]byte, error) {
	var b []byte
	for _, rec := range recs {
		j, err := json.Marshal(rec)
		if err != nil {
			return nil, fmt.Errorf("scenario: encode trace record: %w", err)
		}
		b = fmt.Appendf(b, `{"c":"%08x","r":%s}`+"\n", crc32.Checksum(j, castagnoli), j)
	}
	return b, nil
}

// ReadTrace decodes and CRC-verifies a framed trace. Any malformed or
// corrupt line fails the whole read with its 1-based line number: a trace
// is a proof artifact, so unlike the WAL (where a torn tail is an
// expected crash shape) there is no valid-prefix recovery here.
func ReadTrace(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	var recs []Record
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var fr frame
		if err := json.Unmarshal(raw, &fr); err != nil {
			return nil, fmt.Errorf("scenario: trace line %d: malformed frame: %w", line, err)
		}
		want := crc32.Checksum(fr.R, castagnoli)
		if fmt.Sprintf("%08x", want) != fr.C {
			return nil, fmt.Errorf("scenario: trace line %d: CRC mismatch (frame says %s, payload is %08x)", line, fr.C, want)
		}
		var rec Record
		if err := json.Unmarshal(fr.R, &rec); err != nil {
			return nil, fmt.Errorf("scenario: trace line %d: malformed record: %w", line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scenario: read trace: %w", err)
	}
	if err := checkShape(recs); err != nil {
		return nil, err
	}
	return recs, nil
}

// checkShape validates the record sequence's gross structure.
func checkShape(recs []Record) error {
	if len(recs) == 0 {
		return fmt.Errorf("scenario: empty trace")
	}
	if recs[0].Kind != KindHeader || recs[0].Spec == nil {
		return fmt.Errorf("scenario: trace does not start with a header record")
	}
	if recs[0].Version > TraceVersion {
		return fmt.Errorf("scenario: trace version %d is newer than this reader (%d)", recs[0].Version, TraceVersion)
	}
	for i, rec := range recs[1:] {
		switch rec.Kind {
		case KindArrival, KindDispatch, KindEnd:
		default:
			return fmt.Errorf("scenario: trace record %d has unknown kind %q", i+2, rec.Kind)
		}
	}
	return nil
}

// dispatchRecord converts one server.DispatchEvent into its trace record.
func dispatchRecord(client, class string, ev server.DispatchEvent) Record {
	return Record{
		Kind: KindDispatch, Client: client, Class: class,
		Task: ev.Task, DSeq: ev.Seq, Index: ev.Index, Proc: ev.Proc,
		Start: ev.Start, Finish: ev.Finish, Deadline: ev.Deadline, Tardiness: ev.Tardiness,
	}
}

// dispatchEvent is the inverse of dispatchRecord.
func dispatchEvent(rec Record) server.DispatchEvent {
	return server.DispatchEvent{
		Seq: rec.DSeq, Task: rec.Task, Index: rec.Index, Proc: rec.Proc,
		Start: rec.Start, Finish: rec.Finish, Deadline: rec.Deadline, Tardiness: rec.Tardiness,
	}
}

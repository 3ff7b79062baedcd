package wal

import (
	"encoding/json"

	"desyncpfair/internal/wire"
)

// The hand-written codec of Record (its doc has the rule that keeps it
// complete): json.Marshal and json.Unmarshal without the reflection walk,
// for every record and every payload inside internal/wire's plain subset.
// The rest is declined and goes to encoding/json, which stays the
// definition of a frame's payload. The appender encodes every record here,
// once; recovery, the replication reader and a follower decode here.

// recordKeys are Record's JSON keys in field order: Scanner.Key answers with
// an index into them.
var recordKeys = []string{
	"lsn", "op", "tenant", "m", "policy", "mode", "name", "e", "p", "at",
	"earliness", "dseq", "count", "crc", "index", "finish", "term", "key",
	"jobs",
}

// jobKeys are Job's JSON keys in field order.
var jobKeys = []string{"name", "at", "earliness", "key"}

// jobsAhead caps what DecodeRecord allocates for a group before it has read
// it (the service's batch bound; a longer list grows by append).
const jobsAhead = 1024

// AppendRecord appends json.Marshal(r) to b when r's strings are all plain;
// otherwise it reports false and b comes back as it was.
func AppendRecord(b []byte, r *Record) ([]byte, bool) {
	w := wire.Writer{Buf: b}
	w.Raw(`{"lsn":`)
	w.Uint(r.LSN)
	w.Raw(`,"op":`)
	w.String(r.Op)
	w.OptString(`,"tenant":`, r.Tenant)
	w.OptInt(`,"m":`, int64(r.M))
	w.OptString(`,"policy":`, r.Policy)
	w.OptString(`,"mode":`, r.Mode)
	w.OptString(`,"name":`, r.Name)
	w.OptInt(`,"e":`, r.E)
	w.OptInt(`,"p":`, r.P)
	w.OptString(`,"at":`, r.At)
	w.OptInt(`,"earliness":`, r.Earliness)
	w.OptInt(`,"dseq":`, r.DSeq)
	w.OptInt(`,"count":`, r.Count)
	w.OptUint(`,"crc":`, uint64(r.CRC))
	w.OptInt(`,"index":`, r.Index)
	w.OptString(`,"finish":`, r.Finish)
	w.OptUint(`,"term":`, r.Term)
	w.OptString(`,"key":`, r.Key)
	if len(r.Jobs) > 0 {
		w.Raw(`,"jobs":[`)
		for i := range r.Jobs {
			j := &r.Jobs[i]
			if i > 0 {
				w.Raw(",")
			}
			w.Raw(`{"name":`)
			w.String(j.Name)
			w.OptString(`,"at":`, j.At)
			w.OptInt(`,"earliness":`, j.Earliness)
			w.OptString(`,"key":`, j.Key)
			w.Raw("}")
		}
		w.Raw("]")
	}
	w.Raw("}")
	if !w.OK() {
		return b, false
	}
	return w.Buf, true
}

// DecodeRecord is json.Unmarshal(payload, r) when payload is one object of
// Record's keys in the plain subset — an absent key leaves its field alone,
// as Unmarshal does; otherwise it reports false and leaves *r untouched.
func DecodeRecord(payload []byte, r *Record) bool {
	s := wire.NewScanner(payload)
	rec := *r
	s.Object()
	var seen uint32
	for done := false; !done; {
		switch s.Key(recordKeys, &seen) {
		case 0:
			rec.LSN = s.Uint64()
		case 1:
			rec.Op = s.String()
		case 2:
			rec.Tenant = s.String()
		case 3:
			rec.M = s.Int()
		case 4:
			rec.Policy = s.String()
		case 5:
			rec.Mode = s.String()
		case 6:
			rec.Name = s.String()
		case 7:
			rec.E = s.Int64()
		case 8:
			rec.P = s.Int64()
		case 9:
			rec.At = s.String()
		case 10:
			rec.Earliness = s.Int64()
		case 11:
			rec.DSeq = s.Int64()
		case 12:
			rec.Count = s.Int64()
		case 13:
			rec.CRC = s.Uint32()
		case 14:
			rec.Index = s.Int64()
		case 15:
			rec.Finish = s.String()
		case 16:
			rec.Term = s.Uint64()
		case 17:
			rec.Key = s.String()
		case 18:
			if rec.Jobs != nil {
				s.Decline() // Unmarshal decodes into the elements already there
			}
			s.Array()
			rec.Jobs = make([]Job, 0, s.ObjectsAhead(jobsAhead))
			for n := 0; s.Elem(n); n++ {
				rec.Jobs = append(rec.Jobs, Job{})
				scanJob(&s, &rec.Jobs[n])
			}
		default:
			done = true
		}
	}
	if !s.End() {
		return false
	}
	*r = rec
	return true
}

func scanJob(s *wire.Scanner, j *Job) {
	s.Object()
	var seen uint32
	for {
		switch s.Key(jobKeys, &seen) {
		case 0:
			j.Name = s.String()
		case 1:
			j.At = s.String()
		case 2:
			j.Earliness = s.Int64()
		case 3:
			j.Key = s.String()
		default:
			return
		}
	}
}

// UnmarshalRecord decodes a frame's payload: json.Unmarshal, by way of
// DecodeRecord when it can.
func UnmarshalRecord(payload []byte, r *Record) error {
	if DecodeRecord(payload, r) {
		return nil
	}
	return json.Unmarshal(payload, r)
}

package server

import (
	"desyncpfair/internal/wal"
	"desyncpfair/internal/wire"
)

// The hand-written codec of the request path's bodies (api.go's header has
// the rule that keeps it complete). AppendWire and DecodeWire are
// json.Marshal and a strict json.Unmarshal for the eight types a submit, an
// advance and a registration exchange — without the reflection walk — for
// every value and every input inside internal/wire's plain subset, and
// decline the rest, which the caller hands to encoding/json. Both ends of
// the wire call them: the server's request envelope, and internal/client.

// Wire is how AppendWire or DecodeWire went.
type Wire int

const (
	// WireOK: the result is exactly encoding/json's.
	WireOK Wire = iota
	// WireDeclined: a coded type, but a value or bytes outside the plain
	// subset; nothing was written or stored, encoding/json has to run.
	WireDeclined
	// WireUncoded: not one of the coded types.
	WireUncoded
)

// AppendWire appends json.Marshal(v) to b when v is a coded type (by value)
// whose strings are all plain. Otherwise b comes back as it was.
func AppendWire(b []byte, v any) ([]byte, Wire) {
	w := wire.Writer{Buf: b}
	switch v := v.(type) {
	case SubmitJobRequest:
		appendSubmitJob(&w, &v)
	case SubmitJobsRequest:
		appendSubmitJobs(&w, &v)
	case AdvanceRequest:
		appendAdvance(&w, &v)
	case RegisterTaskRequest:
		appendRegisterTask(&w, &v)
	case SubmitJobResponse:
		appendSubmitJobResp(&w, &v)
	case SubmitJobsResponse:
		appendSubmitJobsResp(&w, &v)
	case AdvanceResponse:
		appendAdvanceResp(&w, &v)
	case RegisterTaskResponse:
		appendRegisterTaskResp(&w, &v)
	default:
		return b, WireUncoded
	}
	if !w.OK() {
		return b, WireDeclined
	}
	return w.Buf, WireOK
}

// DecodeWire is json.Unmarshal of body into v, unknown fields disallowed,
// when v points to a coded type and body is one object of exactly its keys
// in the plain subset. A key that is absent leaves its field alone, as
// Unmarshal does (which decodes an array into the elements a slice already
// has: a destination that holds one declines). On any outcome but WireOK *v
// is untouched.
func DecodeWire(body []byte, v any) Wire {
	s := wire.NewScanner(body)
	switch v := v.(type) {
	case *SubmitJobRequest:
		r := *v
		scanSubmitJob(&s, &r)
		return storeWire(&s, v, r)
	case *SubmitJobsRequest:
		r := *v
		scanSubmitJobs(&s, &r)
		return storeWire(&s, v, r)
	case *AdvanceRequest:
		r := *v
		scanAdvance(&s, &r)
		return storeWire(&s, v, r)
	case *RegisterTaskRequest:
		r := *v
		scanRegisterTask(&s, &r)
		return storeWire(&s, v, r)
	case *SubmitJobResponse:
		r := *v
		scanSubmitJobResp(&s, &r, "")
		return storeWire(&s, v, r)
	case *SubmitJobsResponse:
		r := *v
		scanSubmitJobsResp(&s, &r)
		return storeWire(&s, v, r)
	case *AdvanceResponse:
		r := *v
		scanAdvanceResp(&s, &r)
		return storeWire(&s, v, r)
	case *RegisterTaskResponse:
		r := *v
		scanRegisterTaskResp(&s, &r)
		return storeWire(&s, v, r)
	}
	return WireUncoded
}

// storeWire commits a scan that held.
func storeWire[T any](s *wire.Scanner, dst *T, val T) Wire {
	if !s.End() {
		return WireDeclined
	}
	*dst = val
	return WireOK
}

// One append and one scan per type, field by field in declaration order.
// Scanner.Key answers with an index into the key list beside them.

var submitJobKeys = []string{"task", "at", "earliness", "key"}

func appendSubmitJob(w *wire.Writer, r *SubmitJobRequest) {
	w.Raw(`{"task":`)
	w.String(r.Task)
	w.OptString(`,"at":`, r.At)
	w.OptInt(`,"earliness":`, r.Earliness)
	w.OptString(`,"key":`, r.Key)
	w.Raw("}")
}

func scanSubmitJob(s *wire.Scanner, r *SubmitJobRequest) {
	s.Object()
	var seen uint32
	for {
		switch s.Key(submitJobKeys, &seen) {
		case 0:
			r.Task = s.String()
		case 1:
			r.At = s.String()
		case 2:
			r.Earliness = s.Int64()
		case 3:
			r.Key = s.String()
		default:
			return
		}
	}
}

// job is the request as the tenant carries, journals and replays it: the
// one place a request becomes a wal.Job, whose Name is the wire's task.
func (r *SubmitJobRequest) job() wal.Job {
	return wal.Job{Name: r.Task, At: r.At, Earliness: r.Earliness, Key: r.Key}
}

var submitJobsKeys = []string{"jobs"}

func appendSubmitJobs(w *wire.Writer, r *SubmitJobsRequest) {
	if r.Jobs == nil {
		w.Decline() // Marshal writes null
	}
	w.Raw(`{"jobs":[`)
	for i := range r.Jobs {
		if i > 0 {
			w.Raw(",")
		}
		appendSubmitJob(w, &r.Jobs[i])
	}
	w.Raw("]}")
}

func scanSubmitJobs(s *wire.Scanner, r *SubmitJobsRequest) {
	if r.Jobs != nil {
		s.Decline()
	}
	s.Object()
	var seen uint32
	for s.Key(submitJobsKeys, &seen) == 0 {
		s.Array()
		r.Jobs = make([]SubmitJobRequest, 0, s.ObjectsAhead(MaxBatchJobs))
		for n := 0; s.Elem(n); n++ {
			r.Jobs = append(r.Jobs, SubmitJobRequest{})
			scanSubmitJob(s, &r.Jobs[n])
		}
	}
}

var advanceKeys = []string{"until", "by"}

func appendAdvance(w *wire.Writer, r *AdvanceRequest) {
	// Both members are omitempty: the comma belongs to whichever comes second.
	w.Raw("{")
	w.OptString(`"until":`, r.Until)
	if r.Until != "" {
		w.OptString(`,"by":`, r.By)
	} else {
		w.OptString(`"by":`, r.By)
	}
	w.Raw("}")
}

func scanAdvance(s *wire.Scanner, r *AdvanceRequest) {
	s.Object()
	var seen uint32
	for {
		switch s.Key(advanceKeys, &seen) {
		case 0:
			r.Until = s.String()
		case 1:
			r.By = s.String()
		default:
			return
		}
	}
}

var registerTaskKeys = []string{"name", "e", "p"}

func appendRegisterTask(w *wire.Writer, r *RegisterTaskRequest) {
	w.Raw(`{"name":`)
	w.String(r.Name)
	w.Raw(`,"e":`)
	w.Int(r.E)
	w.Raw(`,"p":`)
	w.Int(r.P)
	w.Raw("}")
}

func scanRegisterTask(s *wire.Scanner, r *RegisterTaskRequest) {
	s.Object()
	var seen uint32
	for {
		switch s.Key(registerTaskKeys, &seen) {
		case 0:
			r.Name = s.String()
		case 1:
			r.E = s.Int64()
		case 2:
			r.P = s.Int64()
		default:
			return
		}
	}
}

var submitJobRespKeys = []string{"at", "pending"}

func appendSubmitJobResp(w *wire.Writer, r *SubmitJobResponse) {
	w.Raw(`{"at":`)
	w.String(r.At)
	w.Raw(`,"pending":`)
	w.Int(int64(r.Pending))
	w.Raw("}")
}

// scanSubmitJobResp reads one response; an `at` equal to prevAt shares its
// string (a batch's results mostly repeat one arrival).
func scanSubmitJobResp(s *wire.Scanner, r *SubmitJobResponse, prevAt string) {
	s.Object()
	var seen uint32
	for {
		switch s.Key(submitJobRespKeys, &seen) {
		case 0:
			r.At = s.StringReusing(prevAt)
		case 1:
			r.Pending = s.Int()
		default:
			return
		}
	}
}

var submitJobsRespKeys = []string{"accepted", "results"}

func appendSubmitJobsResp(w *wire.Writer, r *SubmitJobsResponse) {
	if r.Results == nil {
		w.Decline() // Marshal writes null
	}
	w.Raw(`{"accepted":`)
	w.Int(int64(r.Accepted))
	w.Raw(`,"results":[`)
	for i := range r.Results {
		if i > 0 {
			w.Raw(",")
		}
		appendSubmitJobResp(w, &r.Results[i])
	}
	w.Raw("]}")
}

func scanSubmitJobsResp(s *wire.Scanner, r *SubmitJobsResponse) {
	if r.Results != nil {
		s.Decline()
	}
	s.Object()
	var seen uint32
	for {
		switch s.Key(submitJobsRespKeys, &seen) {
		case 0:
			r.Accepted = s.Int()
		case 1:
			s.Array()
			r.Results = make([]SubmitJobResponse, 0, s.ObjectsAhead(MaxBatchJobs))
			prevAt := ""
			for n := 0; s.Elem(n); n++ {
				r.Results = append(r.Results, SubmitJobResponse{})
				scanSubmitJobResp(s, &r.Results[n], prevAt)
				prevAt = r.Results[n].At
			}
		default:
			return
		}
	}
}

var advanceRespKeys = []string{"now", "dispatched", "pending"}

func appendAdvanceResp(w *wire.Writer, r *AdvanceResponse) {
	w.Raw(`{"now":`)
	w.String(r.Now)
	w.Raw(`,"dispatched":`)
	w.Int(r.Dispatched)
	w.Raw(`,"pending":`)
	w.Int(int64(r.Pending))
	w.Raw("}")
}

func scanAdvanceResp(s *wire.Scanner, r *AdvanceResponse) {
	s.Object()
	var seen uint32
	for {
		switch s.Key(advanceRespKeys, &seen) {
		case 0:
			r.Now = s.String()
		case 1:
			r.Dispatched = s.Int64()
		case 2:
			r.Pending = s.Int()
		default:
			return
		}
	}
}

var registerTaskRespKeys = []string{"admitted", "guarantee", "reason"}

func appendRegisterTaskResp(w *wire.Writer, r *RegisterTaskResponse) {
	w.Raw(`{"admitted":`)
	w.Bool(r.Admitted)
	w.Raw(`,"guarantee":`)
	w.String(r.Guarantee)
	w.Raw(`,"reason":`)
	w.String(r.Reason)
	w.Raw("}")
}

func scanRegisterTaskResp(s *wire.Scanner, r *RegisterTaskResponse) {
	s.Object()
	var seen uint32
	for {
		switch s.Key(registerTaskRespKeys, &seen) {
		case 0:
			r.Admitted = s.Bool()
		case 1:
			r.Guarantee = s.String()
		case 2:
			r.Reason = s.String()
		default:
			return
		}
	}
}

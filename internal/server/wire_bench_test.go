package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"desyncpfair/internal/client"
	"desyncpfair/internal/hop/hoptest"
	"desyncpfair/internal/model"
	"desyncpfair/internal/server"
	"desyncpfair/internal/wal"
)

// wireCodec is one way through the six encodings a submit crosses: the
// request out of the client and into the server, the reply back, and the
// journal records in between, written and (on a follower, at recovery) read.
type wireCodec struct {
	name      string
	encReq    func(scratch []byte, v any) []byte
	decReq    func(body []byte, v any) error
	encResp   func(scratch []byte, v any) []byte
	decResp   func(body []byte, v any) error
	encRecord func(scratch []byte, r *wal.Record) []byte
	decRecord func(payload []byte, r *wal.Record) error
}

// jsonCodec is each of the six exactly as the request path ran it on
// encoding/json: Marshal in the client, a strict streaming Decoder in the
// server, an Encoder onto the response, a streaming Decoder in the client,
// a pooled Encoder into the frame buffer, Unmarshal of a frame.
var jsonCodec = wireCodec{
	name: "json",
	encReq: func(_ []byte, v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		return b
	},
	decReq: func(body []byte, v any) error {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		return dec.Decode(v)
	},
	encResp: func(scratch []byte, v any) []byte {
		w := bytes.NewBuffer(scratch[:0])
		if err := json.NewEncoder(w).Encode(v); err != nil {
			panic(err)
		}
		return w.Bytes()
	},
	decResp: func(body []byte, v any) error {
		return json.NewDecoder(bytes.NewReader(body)).Decode(v)
	},
	encRecord: func(_ []byte, r *wal.Record) []byte {
		jsonFrame.Reset()
		if err := jsonFrameEnc.Encode(r); err != nil {
			panic(err)
		}
		return jsonFrame.Bytes()
	},
	decRecord: func(payload []byte, r *wal.Record) error { return json.Unmarshal(payload, r) },
}

// The journal kept its Encoder and the buffer it wrote to in a pool.
var (
	jsonFrame    bytes.Buffer
	jsonFrameEnc = json.NewEncoder(&jsonFrame)
)

// handCodec is the hand-written codec behind the same six call sites. The
// benchmark bodies are all inside its plain subset: a decline here is a bug.
var handCodec = wireCodec{
	name:    "wire",
	encReq:  appendWire,
	decReq:  decodeWire,
	encResp: func(scratch []byte, v any) []byte { return append(appendWire(scratch, v), '\n') },
	decResp: decodeWire,
	encRecord: func(scratch []byte, r *wal.Record) []byte {
		b, ok := wal.AppendRecord(scratch[:0], r)
		if !ok {
			panic("wire: record declined")
		}
		return b
	},
	decRecord: func(payload []byte, r *wal.Record) error {
		if !wal.DecodeRecord(payload, r) {
			return fmt.Errorf("wire: payload %q declined", payload)
		}
		return nil
	},
}

func appendWire(scratch []byte, v any) []byte {
	b, res := server.AppendWire(scratch[:0], v)
	if res != server.WireOK {
		panic(fmt.Sprintf("wire: %T not encoded: %d", v, res))
	}
	return b
}

func decodeWire(body []byte, v any) error {
	if res := server.DecodeWire(body, v); res != server.WireOK {
		return fmt.Errorf("wire: body %q not decoded into %T: %d", body, v, res)
	}
	return nil
}

var wireCodecs = []wireCodec{jsonCodec, handCodec}

// wireBenchBodies builds the bodies of one submit of n jobs in the shapes
// the repository benchmark sends: a single keyed submit (submit_churn,
// routed_replica) for n = 1, a batch (long_tenant's 16, wide_sched's 92)
// above, and the journal records the submit leaves.
func wireBenchBodies(n int) (req, resp any, recs []wal.Record) {
	for i := 0; i < n; i++ {
		recs = append(recs, wal.Record{
			LSN: uint64(70000 + i), Op: wal.OpJobSubmit, Tenant: "wide-0",
			Name: fmt.Sprintf("l%d", 17*i), At: "41592", Term: 1,
		})
	}
	if n == 1 {
		recs[0].Key = "churn-17/3/1041"
		return server.SubmitJobRequest{Task: "t3", Key: "churn-17/3/1041"},
			server.SubmitJobResponse{At: "1040", Pending: 4}, recs
	}
	var breq server.SubmitJobsRequest
	bresp := server.SubmitJobsResponse{Accepted: n}
	for i := 0; i < n; i++ {
		breq.Jobs = append(breq.Jobs, server.SubmitJobRequest{Task: recs[i].Name})
		bresp.Results = append(bresp.Results, server.SubmitJobResponse{At: "41592", Pending: 300 + i})
	}
	return breq, bresp, recs
}

// BenchmarkWireCodec prices the six encodings of one submit, per codec and
// per batch size. An op is one body (n records for the record rows).
// Encoders write into a reused buffer where the codec lets them; decoders
// fill a fresh value, as a request does.
func BenchmarkWireCodec(b *testing.B) {
	for _, c := range wireCodecs {
		for _, n := range []int{1, 16, 92} {
			req, resp, recs := wireBenchBodies(n)
			reqBody, respBody := jsonCodec.encReq(nil, req), jsonCodec.encResp(nil, resp)
			var payloads [][]byte
			for i := range recs {
				payloads = append(payloads, jsonCodec.encReq(nil, &recs[i]))
			}
			scratch := make([]byte, 0, 16<<10)
			run := func(op string, fn func()) {
				b.Run(fmt.Sprintf("%s/%s/%djobs", c.name, op, n), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						fn()
					}
				})
			}
			run("encReq", func() { c.encReq(scratch, req) })
			run("decReq", func() {
				var err error
				if n == 1 {
					err = c.decReq(reqBody, new(server.SubmitJobRequest))
				} else {
					err = c.decReq(reqBody, new(server.SubmitJobsRequest))
				}
				if err != nil {
					b.Fatal(err)
				}
			})
			run("encResp", func() { c.encResp(scratch, resp) })
			run("decResp", func() {
				var err error
				if n == 1 {
					err = c.decResp(respBody, new(server.SubmitJobResponse))
				} else {
					err = c.decResp(respBody, new(server.SubmitJobsResponse))
				}
				if err != nil {
					b.Fatal(err)
				}
			})
			run("encRecord", func() {
				for i := range recs {
					c.encRecord(scratch, &recs[i])
				}
			})
			run("decRecord", func() {
				for _, p := range payloads {
					var r wal.Record
					if err := c.decRecord(p, &r); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkServerSubmitBatch is BenchmarkServerSubmit for the batch route:
// one jobs:batch of n jobs — client, HTTP round trip, ring hop, executive
// release, and on the _wal rows the journal's frame group — with an advance
// after every batch so the backlog stays bounded. n = 16 on M = 2 is
// long_tenant's round, n = 92 is the size of wide_sched's. The _wal rows
// also report what a round (one batch, one advance) costs the journal:
// records/op, the frames it appended, and fsyncs/op.
func BenchmarkServerSubmitBatch(b *testing.B) {
	server.AtProductionSegments(b)
	for _, n := range []int{16, 92} {
		for _, durable := range []bool{false, true} {
			name := fmt.Sprintf("%djobs", n)
			if durable {
				name += "_wal"
			}
			b.Run(name, func(b *testing.B) { benchSubmitBatch(b, n, durable) })
		}
	}
}

func benchSubmitBatch(b *testing.B, n int, durable bool) {
	var srv *server.Server
	if durable {
		var err error
		srv, err = server.Open(server.Options{
			DataDir:       b.TempDir(),
			FsyncEvery:    64,
			SnapshotEvery: 1 << 30, // keep compaction out of the measured loop
		})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
	} else {
		srv = server.New()
		defer srv.Close()
	}
	hs := hoptest.NewServer(srv.Handler())
	defer hs.Close()
	c := client.New(hs.URL, nil)
	ctx := context.Background()

	// n tasks of weight 1/8 on n/8 processors: one job each per 8 slots is
	// exactly full utilisation, like the benchmark's long tenant.
	if _, err := c.CreateTenant(ctx, "bench", (n+7)/8, ""); err != nil {
		b.Fatal(err)
	}
	jobs := make([]server.SubmitJobRequest, n)
	for i := range jobs {
		jobs[i].Task = fmt.Sprintf("t%d", i)
		if _, err := c.RegisterTask(ctx, "bench", jobs[i].Task, model.W(1, 8)); err != nil {
			b.Fatal(err)
		}
	}

	before := srv.WALStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SubmitJobs(ctx, "bench", jobs); err != nil {
			b.Fatal(err)
		}
		if _, err := c.AdvanceBy(ctx, "bench", "8"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if durable {
		after := srv.WALStats()
		b.ReportMetric(float64(after.Appends-before.Appends)/float64(b.N), "records/op")
		b.ReportMetric(float64(after.Fsyncs-before.Fsyncs)/float64(b.N), "fsyncs/op")
	}
}

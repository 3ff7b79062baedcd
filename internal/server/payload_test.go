package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"desyncpfair/internal/model"
)

// TestSnapshotPayloadMatchesMarshal is the differential test of
// marshalPayload: on real tenant checkpoints it writes the bytes
// json.Marshal writes. The tenants cover no log at all, plain task names,
// names encoding/json escapes — a quote, a backslash, the HTML-sensitive
// <, > and &, U+2028 — a sealed-history manifest ahead of the inline log,
// remembered idempotency keys, and several tenants in one payload (none,
// one, all of them).
func TestSnapshotPayloadMatchesMarshal(t *testing.T) {
	old := histSegmentMin
	histSegmentMin = 1 << 20 // every checkpoint's log inline
	defer func() { histSegmentMin = old }()

	tenant := func(id string, names []string, rounds int) tenantCheckpoint {
		t.Helper()
		tn, err := NewTenant(id, 2, "")
		if err != nil {
			t.Fatal(err)
		}
		defer tn.Close()
		for _, name := range names {
			if d, _, err := tn.RegisterTask(name, model.W(1, int64(2*len(names)))); err != nil || !d.Admitted {
				t.Fatalf("register %q: %v %+v", name, err, d)
			}
		}
		for r := 0; r < rounds; r++ {
			for i, name := range names {
				req := SubmitJobRequest{Task: name}
				if i == 0 {
					req.Key = fmt.Sprintf("%s-%d", id, r)
				}
				if _, _, err := tn.SubmitJobReq(req); err != nil {
					t.Fatal(err)
				}
			}
			if _, _, err := tn.Advance("", fmt.Sprint(2*len(names))); err != nil {
				t.Fatal(err)
			}
		}
		return tn.checkpoint()
	}
	idle := tenant("idle", nil, 0)
	plain := tenant("plain", []string{"web", "db", "cron"}, 40)
	escaped := tenant(`odd"<id>`, []string{`q"uote`, `back\slash`, "<tag>", "a&b", "line\u2028sep", "é"}, 12)
	sealed := tenant("sealed", []string{"web"}, 5)
	sealed.History = []histSegment{{File: "hist-1-0.ndjson", FirstSeq: 0, Count: 4096, Bytes: 450000, CRC: 7}}
	if len(idle.Log) != 0 || len(plain.Log) == 0 || len(escaped.Log) == 0 || len(escaped.Idem) == 0 {
		t.Fatalf("checkpoints do not cover the cases: idle %d, plain %d, escaped %d log bytes, %d keys",
			len(idle.Log), len(plain.Log), len(escaped.Log), len(escaped.Idem))
	}
	for _, esc := range []string{`q\"uote`, `back\\slash`, `\u003ctag\u003e`, `a\u0026b`, `line\u2028sep`} {
		if !bytes.Contains(escaped.Log, []byte(esc)) {
			t.Fatalf("escaped tenant's log holds no %s: %.400s", esc, escaped.Log)
		}
	}

	for _, pay := range []snapshotPayload{
		{},
		{Commands: 7, Tenants: []tenantCheckpoint{idle}},
		{Commands: 1 << 40, Tenants: []tenantCheckpoint{plain}},
		{Commands: 3, Tenants: []tenantCheckpoint{escaped, sealed}},
		{Commands: 99, Tenants: []tenantCheckpoint{idle, plain, escaped, sealed}},
	} {
		want, err := json.Marshal(pay)
		if err != nil {
			t.Fatal(err)
		}
		got, err := marshalPayload(pay)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%d tenants: marshalPayload differs from json.Marshal:\n got: %.400s\nwant: %.400s", len(pay.Tenants), got, want)
		}
	}
}

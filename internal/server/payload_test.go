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
// json.Marshal writes once each checkpoint's Log is set to the JSON array
// of the events its inline chunks hold, decoded frame by frame. The
// tenants cover no log at all, plain task names, names encoding/json
// escapes — a quote, a backslash, the HTML-sensitive <, > and &, U+2028 —
// a sealed-history manifest ahead of the inline log, remembered
// idempotency keys, an inline tail spanning several chunks (so the
// newline-to-comma rewrite crosses a chunk boundary), a checkpoint whose
// own JSON is past 512 bytes, and several tenants in one payload (none,
// one, all of them). The payload is written into a buffer of exactly its
// size, and the chunks, which stream readers share, are left as they were.
func TestSnapshotPayloadMatchesMarshal(t *testing.T) {
	old := histSegmentMin
	histSegmentMin = 1 << 20 // every checkpoint's log inline
	defer func() { histSegmentMin = old }()

	tenant := func(id string, names []string, rounds int) tenantCheckpoint {
		t.Helper()
		// Built journaled, as every tenant a snapshot checkpoints is: its
		// chunks hold wire bytes, which are decoded below for the reference.
		tn, err := newTenant(id, 2, "", nil, true)
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
		cp, err := tn.checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		var evs []DispatchEvent
		for _, c := range cp.inline {
			for _, frame := range bytes.SplitAfter(c.data, []byte{'\n'}) {
				if len(frame) == 0 {
					continue
				}
				var ev DispatchEvent
				if err := json.Unmarshal(frame, &ev); err != nil {
					t.Fatalf("%s: frame %q: %v", id, frame, err)
				}
				evs = append(evs, ev)
			}
		}
		if len(evs) > 0 {
			cp.Log, _ = json.Marshal(evs)
		}
		return cp
	}
	idle := tenant("idle", nil, 0)
	plain := tenant("plain", []string{"web", "db", "cron"}, 40)
	escaped := tenant(`odd"<id>`, []string{`q"uote`, `back\slash`, "<tag>", "a&b", "line\u2028sep", "é"}, 12)
	sealed := tenant("sealed", []string{"web"}, 5)
	sealed.History = []histSegment{{File: "hist-1-0.ndjson", FirstSeq: 0, Count: 4096, Bytes: 450000, CRC: 7}}
	var wideNames []string
	for i := 0; i < 8; i++ {
		wideNames = append(wideNames, fmt.Sprintf("a-task-with-a-long-name-%d", i))
	}
	wide := tenant("wide", wideNames, 80)
	keyed := tenant("keyed", []string{"web", "db"}, 30)
	for k := 0; k < 6; k++ {
		keyed.History = append(keyed.History, histSegment{
			File: fmt.Sprintf("hist-%016x-0.ndjson", k+1), FirstSeq: int64(4096 * k), Count: 4096, Bytes: 450000, CRC: uint32(k),
		})
	}
	if len(idle.Log) != 0 || len(plain.Log) == 0 || len(escaped.Log) == 0 || len(escaped.Idem) == 0 {
		t.Fatalf("checkpoints do not cover the cases: idle %d, plain %d, escaped %d log bytes, %d keys",
			len(idle.Log), len(plain.Log), len(escaped.Log), len(escaped.Idem))
	}
	for _, esc := range []string{`q\"uote`, `back\\slash`, `\u003ctag\u003e`, `a\u0026b`, `line\u2028sep`} {
		if !bytes.Contains(escaped.Log, []byte(esc)) {
			t.Fatalf("escaped tenant's log holds no %s: %.400s", esc, escaped.Log)
		}
	}
	if len(wide.inline) < 2 {
		t.Fatalf("the wide tenant's inline tail is %d chunk(s), want at least 2", len(wide.inline))
	}
	noLog := keyed
	noLog.Log = nil
	if j, _ := json.Marshal(noLog); len(j) <= 512 || len(keyed.Idem) == 0 {
		t.Fatalf("the keyed tenant's checkpoint is %d bytes without its log, %d keys; want over 512 and some", len(j), len(keyed.Idem))
	}
	var frames [][]byte
	for _, cp := range []tenantCheckpoint{plain, escaped, sealed, wide, keyed} {
		for _, c := range cp.inline {
			frames = append(frames, append([]byte(nil), c.data...))
		}
	}

	for _, pay := range []snapshotPayload{
		{},
		{Commands: 7, Tenants: []tenantCheckpoint{idle}},
		{Commands: 1 << 40, Tenants: []tenantCheckpoint{plain}},
		{Commands: 3, Tenants: []tenantCheckpoint{escaped, sealed}},
		{Commands: 5, Tenants: []tenantCheckpoint{wide}},
		{Commands: 11, Tenants: []tenantCheckpoint{keyed, idle}},
		{Commands: 99, Tenants: []tenantCheckpoint{idle, plain, escaped, sealed, wide, keyed}},
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
		if len(got) != cap(got) {
			t.Errorf("%d tenants: %d payload bytes in a buffer of %d", len(pay.Tenants), len(got), cap(got))
		}
	}
	k := 0
	for _, cp := range []tenantCheckpoint{plain, escaped, sealed, wide, keyed} {
		for _, c := range cp.inline {
			if !bytes.Equal(c.data, frames[k]) {
				t.Fatalf("%s: marshalPayload changed a chunk's frames", cp.ID)
			}
			k++
		}
	}
}

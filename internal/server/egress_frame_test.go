package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// TestDispatchFrameMatchesMarshal pins the hand-written dispatch encoder
// to encoding/json: every byte value in every string position, alone and
// inside longer strings, multi-byte and invalid UTF-8, and the integer
// extremes. The stream, the ?from replay, the sealed history files and the
// snapshot's inline tail all carry these bytes.
func TestDispatchFrameMatchesMarshal(t *testing.T) {
	check := func(ev DispatchEvent) {
		t.Helper()
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendDispatchJSON(nil, &ev); !bytes.Equal(got, want) {
			t.Fatalf("appendDispatchJSON\n got %s\nwant %s", got, want)
		}
		if got := marshalDispatchFrame(ev); !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("marshalDispatchFrame\n got %q\nwant %q", got, want)
		}
	}
	base := DispatchEvent{Seq: 7, Task: "web", Index: 3, Proc: 1, Start: "5/2", Finish: "7/2", Deadline: 4, Tardiness: "0"}
	check(base)
	check(DispatchEvent{})
	check(DispatchEvent{Seq: math.MaxInt64, Index: math.MinInt64, Proc: math.MinInt32, Deadline: -1})
	for c := 0; c < 256; c++ {
		for _, s := range []string{string([]byte{byte(c)}), "a" + string([]byte{byte(c)}) + "z"} {
			for field := 0; field < 4; field++ {
				ev := base
				*[]*string{&ev.Task, &ev.Start, &ev.Finish, &ev.Tardiness}[field] = s
				check(ev)
			}
		}
	}
	for _, s := range []string{"é", "日本", "  ", "\xff\xfe", "a\x00b", `"quoted"`, `back\slash`, "<script>&amp;</script>", "tab\there"} {
		ev := base
		ev.Task = s
		check(ev)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		raw := make([]byte, rng.Intn(12))
		for j := range raw {
			raw[j] = byte(rng.Intn(256))
		}
		ev := base
		ev.Seq, ev.Index, ev.Proc, ev.Deadline = rng.Int63(), rng.Int63()-rng.Int63(), rng.Intn(64), rng.Int63n(1<<40)
		ev.Task = string(raw)
		check(ev)
	}
}

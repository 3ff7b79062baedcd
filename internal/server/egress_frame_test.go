package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"desyncpfair/internal/rat"
)

// TestDispatchFrameMatchesMarshal pins the hand-written dispatch encoder
// to encoding/json: every byte value in the task name, alone and inside
// longer strings, multi-byte and invalid UTF-8, the integer extremes, and
// rats of every shape (integral, n/d, negative). The stream, the ?from
// replay, the sealed history files and the snapshot's inline tail all
// carry these bytes — and a frame never outgrows the room the log makes
// for it.
func TestDispatchFrameMatchesMarshal(t *testing.T) {
	check := func(seq int64, task string, index int64, proc int, start, finish rat.Rat, deadline int64, tard rat.Rat) {
		t.Helper()
		want, err := json.Marshal(DispatchEvent{
			Seq: seq, Task: task, Index: index, Proc: proc,
			Start: start.String(), Finish: finish.String(), Deadline: deadline, Tardiness: tard.String(),
		})
		if err != nil {
			t.Fatal(err)
		}
		got := appendDispatchFrame([]byte("x"), seq, task, index, proc, start, finish, deadline, tard)
		if !bytes.Equal(got[1:], append(want, '\n')) {
			t.Fatalf("appendDispatchFrame\n got %q\nwant %q", got[1:], want)
		}
		if len(got)-1 > maxFrameBytes(len(task)) {
			t.Fatalf("frame of %d bytes for a %d-byte name; maxFrameBytes allows %d", len(got)-1, len(task), maxFrameBytes(len(task)))
		}
	}
	base := func(task string) {
		t.Helper()
		check(7, task, 3, 1, rat.New(5, 2), rat.New(7, 2), 4, rat.Zero)
	}
	base("web")
	check(0, "", 0, 0, rat.Rat{}, rat.Rat{}, 0, rat.Rat{})
	huge := rat.New(math.MinInt64+1, math.MaxInt64)
	check(math.MaxInt64, "t", math.MinInt64, math.MinInt32, huge, huge, math.MinInt64, huge)
	check(1, "t", 1, 1, rat.FromInt(-3), rat.New(-1, 3), -1, rat.FromInt(100))
	for c := 0; c < 256; c++ {
		base(string([]byte{byte(c)}))
		base("a" + string([]byte{byte(c)}) + "z")
	}
	for _, s := range []string{"é", "日本", "  ", "\xff\xfe", "a\x00b", `"quoted"`, `back\slash`, "<script>&amp;</script>", "tab\there", "line\nbreak"} {
		base(s)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		raw := make([]byte, rng.Intn(12))
		for j := range raw {
			raw[j] = byte(rng.Intn(256))
		}
		r := func() rat.Rat { return rat.New(rng.Int63n(1<<40)-1<<39, 1+rng.Int63n(1<<16)) }
		check(rng.Int63(), string(raw), rng.Int63()-rng.Int63(), rng.Intn(64), r(), r(), rng.Int63n(1<<40), r())
	}
}

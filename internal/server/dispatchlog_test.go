package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"desyncpfair/internal/rat"
)

// logEvent is the i-th event the dispatch-log tests append, and its wire
// frame as encoding/json renders it.
func logEvent(i int64) (DispatchEvent, []byte) {
	start := rat.New(i, 3)
	ev := DispatchEvent{
		Seq: i, Task: fmt.Sprintf("task-%d", i%7), Index: i / 7, Proc: int(i % 4),
		Start: start.String(), Finish: start.Add(rat.One).String(), Deadline: i/3 + 1, Tardiness: rat.New(i%2, 2).String(),
	}
	frame, _ := json.Marshal(ev)
	return ev, append(frame, '\n')
}

// readAll reads the resident frames from pos to the end through frames,
// limit at a time.
func readAll(l *dispatchLog, pos int64, limit int) []byte {
	var out []byte
	for pos < l.len() {
		b, n := l.frames(pos, limit)
		if n == 0 {
			break
		}
		out, pos = append(out, b...), pos+int64(n)
	}
	return out
}

// TestDispatchLogChunks drives a log across several chunk boundaries and a
// seal: every read — any start, any batch limit — returns exactly the
// frames encoding/json would have written; a view published earlier stays
// what it was while the log grows and drops chunks past it; the inline tail
// is the JSON array of the resident events; the resident accounting
// follows.
func TestDispatchLogChunks(t *testing.T) {
	const n = 2500 // ≈ 280 KB: four closed chunks and a tail
	var l dispatchLog
	var want []byte
	var offs []int
	var view dispatchLog
	for i := int64(0); i < n; i++ {
		ev, frame := logEvent(i)
		offs = append(offs, len(want))
		want = append(want, frame...)
		if err := l.restore(ev); err != nil {
			t.Fatal(err)
		}
		if i == 999 {
			view = l // what tenantSnap publishes
		}
	}
	offs = append(offs, len(want))
	if len(l.full) < 3 || l.len() != n || l.resident != int64(len(want)) {
		t.Fatalf("%d events in %d closed chunks, %d bytes resident of %d", l.len(), len(l.full), l.resident, len(want))
	}
	for _, c := range l.full {
		if cap(c.data) > chunkBytes {
			t.Fatalf("a chunk grew to %d bytes", cap(c.data))
		}
	}
	for _, limit := range []int{1, 7, 256, n} {
		for _, from := range []int64{0, 1, 599, 1000, n - 1, n} {
			if got := readAll(&l, from, limit); !bytes.Equal(got, want[offs[from]:]) {
				t.Fatalf("frames from %d, %d at a time: %d bytes, want %d", from, limit, len(got), len(want)-offs[from])
			}
		}
	}
	if err := l.restore(DispatchEvent{Seq: n + 1, Start: "0", Finish: "1", Tardiness: "0"}); err == nil {
		t.Fatal("an event out of sequence was logged")
	}
	if err := l.restore(DispatchEvent{Seq: n, Start: "x", Finish: "1", Tardiness: "0"}); err == nil {
		t.Fatal("an event with a malformed time was logged")
	}

	// Seal everything but the last chunk's worth, as a compaction would.
	l.cut()
	keep := l.full[len(l.full)-1]
	l.dropSealed([]histSegment{{FirstSeq: 0, Count: keep.first}})
	if l.floor() != keep.first || len(l.full) != 1 || l.resident != int64(len(want)-offs[keep.first]) {
		t.Fatalf("after the seal: floor %d, %d chunks, %d bytes resident", l.floor(), len(l.full), l.resident)
	}
	if b, k := l.frames(keep.first-1, 8); k != 0 || b != nil {
		t.Fatal("a sealed frame was served from memory")
	}
	if got := readAll(&l, keep.first, 256); !bytes.Equal(got, want[offs[keep.first]:]) {
		t.Fatal("the resident tail changed across the seal")
	}
	var evs []DispatchEvent
	for i := keep.first; i < n; i++ {
		ev, _ := logEvent(i)
		evs = append(evs, ev)
	}
	if inline, _ := json.Marshal(evs); !bytes.Equal(l.inline(), inline) {
		t.Fatal("the inline tail is not the JSON array of the resident events")
	}
	if (&dispatchLog{}).inline() != nil {
		t.Fatal("an empty log has an inline tail")
	}

	// The view published at 1000 events is untouched by all of it.
	if view.len() != 1000 || view.floor() != 0 {
		t.Fatalf("the published view moved: %d events, floor %d", view.len(), view.floor())
	}
	if got := readAll(&view, 0, 256); !bytes.Equal(got, want[:offs[1000]]) {
		t.Fatal("the published view's bytes changed under it")
	}
}

// TestCopyFramesSkipsWholeLines: serving a history file from its k-th
// frame on, including past a frame longer than the read buffer.
func TestCopyFramesSkipsWholeLines(t *testing.T) {
	var file []byte
	var offs []int
	for i := int64(0); i < 40; i++ {
		_, frame := logEvent(i)
		if i == 17 {
			frame = append(bytes.Repeat([]byte{'x'}, 2*chunkBytes+5), frame...)
		}
		offs = append(offs, len(file))
		file = append(file, frame...)
	}
	offs = append(offs, len(file))
	for skip := 0; skip <= 40; skip++ {
		var out bytes.Buffer
		if err := copyFrames(&out, bytes.NewReader(file), int64(skip)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), file[offs[skip]:]) {
			t.Fatalf("skip %d: copied %d bytes, want %d", skip, out.Len(), len(file)-offs[skip])
		}
	}
	if err := copyFrames(io.Discard, bytes.NewReader(file), 41); err != io.EOF {
		t.Fatalf("skipping past the end: %v", err)
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"
	"testing"
	"unicode/utf8"

	"desyncpfair/internal/model"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/wal"
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

// logWeight is the weight the dispatch-log tests give every task:
// logEvent's index i/7 at start i/3 is about what it predicts.
var logWeight = model.W(3, 7)

// logTasks names logEvent's seven tasks in l's table, with executive IDs
// 0..6, and returns the map restore resolves them by.
func logTasks(l *dispatchLog) map[string]int {
	for i := 0; i < 7; i++ {
		l.name(i, fmt.Sprintf("task-%d", i), logWeight)
	}
	return l.taskIDs()
}

// heldBytes is what chunks hold: wire bytes, or a cold chunk's records.
func heldBytes(chunks []chunk) int {
	n := 0
	for i := range chunks {
		n += len(chunks[i].data)
	}
	return n
}

// readAll reads the resident frames from pos to the end through frames,
// limit at a time.
func readAll(l *dispatchLog, pos int64, limit int) []byte {
	return readTo(l, pos, l.len(), limit)
}

// readTo reads the resident frames from pos on through frames, limit at a
// time, until it has passed seq end.
func readTo(l *dispatchLog, pos, end int64, limit int) []byte {
	var out, buf []byte
	for pos < end {
		b, n := l.frames(&buf, pos, limit)
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
	ids := logTasks(&l)
	var want []byte
	var offs []int
	var view dispatchLog
	for i := int64(0); i < n; i++ {
		ev, frame := logEvent(i)
		offs = append(offs, len(want))
		want = append(want, frame...)
		if err := l.restore(ev, ids); err != nil {
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
	if err := l.restore(DispatchEvent{Seq: n + 1, Task: "task-0", Start: "0", Finish: "1", Tardiness: "0"}, ids); err == nil {
		t.Fatal("an event out of sequence was logged")
	}
	if err := l.restore(DispatchEvent{Seq: n, Task: "task-0", Start: "x", Finish: "1", Tardiness: "0"}, ids); err == nil {
		t.Fatal("an event with a malformed time was logged")
	}
	if err := l.restore(DispatchEvent{Seq: n, Task: "gone", Start: "0", Finish: "1", Tardiness: "0"}, ids); err == nil {
		t.Fatal("an event of a task the tenant never had was logged")
	}

	// Seal everything but the last chunk's worth, as a compaction would.
	l.cut()
	keep := l.full[len(l.full)-1]
	l.dropSealed([]histSegment{{FirstSeq: 0, Count: keep.first}})
	if l.floor() != keep.first || len(l.full) != 1 || l.resident != int64(len(want)-offs[keep.first]) {
		t.Fatalf("after the seal: floor %d, %d chunks, %d bytes resident", l.floor(), len(l.full), l.resident)
	}
	if b, k := l.frames(new([]byte), keep.first-1, 8); k != 0 || b != nil {
		t.Fatal("a sealed frame was served from memory")
	}
	if got := readAll(&l, keep.first, 256); !bytes.Equal(got, want[offs[keep.first]:]) {
		t.Fatal("the resident tail changed across the seal")
	}
	// A few more in a fresh tail: the inline tail spans the closed chunk and
	// the open one, and is rendered without touching either.
	var evs []DispatchEvent
	for i := keep.first; i < n+10; i++ {
		ev, frame := logEvent(i)
		if i >= n {
			want = append(want, frame...)
			if err := l.restore(ev, ids); err != nil {
				t.Fatal(err)
			}
		}
		evs = append(evs, ev)
	}
	chunks := l.chunks()
	if len(chunks) != 2 || wireBytesOf(chunks) != int(l.resident) {
		t.Fatalf("the resident log is %d chunks of %d bytes, want the closed one and the tail, %d bytes",
			len(chunks), wireBytesOf(chunks), l.resident)
	}
	if inline, _ := json.Marshal(evs); !bytes.Equal(appendArray([]byte("x"), chunks), append([]byte("x"), inline...)) {
		t.Fatal("the inline tail is not the JSON array of the resident events")
	}
	if got := readAll(&l, keep.first, 256); !bytes.Equal(got, want[offs[keep.first]:]) {
		t.Fatal("rendering the inline tail changed the resident frames")
	}
	if chunks := (&dispatchLog{}).chunks(); len(chunks) != 0 {
		t.Fatal("an empty log has resident chunks")
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

// TestSealSegmentWritesChunks pins what a seal writes, for a segment of one
// chunk and for an append of several to it: the history file is the
// concatenation of the chunks, handed to the journal as the chunks
// themselves (nothing is gathered into a buffer first), and the manifest
// entry gives the seq range, length and crc32 (IEEE) of everything the file
// holds, its CRC continued across the append.
func TestSealSegmentWritesChunks(t *testing.T) {
	l, _, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var log dispatchLog
	ids := logTasks(&log)
	seg := histSegment{File: l.SidecarName()}
	var want []byte
	for k, n := range []int64{10, 2500} { // one small chunk; ≈ 280 KB, four chunks and more
		first := log.len()
		for i := first; i < first+n; i++ {
			ev, _ := logEvent(i)
			if err := log.restore(ev, ids); err != nil {
				t.Fatal(err)
			}
		}
		log.cut()
		chunks := log.chunks()
		if k == 0 && len(chunks) != 1 || k == 1 && len(chunks) < 3 {
			t.Fatalf("seal %d spans %d chunks", k, len(chunks))
		}
		for _, c := range chunks {
			want = append(want, c.data...)
		}
		var parts [][]byte
		seg, parts = sealSegment(seg, chunks)
		if seg.FirstSeq != 0 || seg.Count != log.len() || seg.Bytes != int64(len(want)) || seg.CRC != crc32.ChecksumIEEE(want) {
			t.Fatalf("seal %d: manifest %+v for seqs 0… (%d), %d bytes, crc %d",
				k, seg, log.len(), len(want), crc32.ChecksumIEEE(want))
		}
		if len(parts) != len(chunks) {
			t.Fatalf("seal %d: %d parts for %d chunks", k, len(parts), len(chunks))
		}
		for i, part := range parts {
			if &part[0] != &chunks[i].data[0] || len(part) != len(chunks[i].data) {
				t.Fatalf("seal %d: part %d is not chunk %d's bytes", k, i, i)
			}
		}
		if err := l.AppendSidecar(seg.File, k == 0, parts); err != nil {
			t.Fatal(err)
		}
		f, err := l.OpenSidecar(seg.File)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(f)
		f.Close()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("seal %d: the file holds %d bytes (%v), want the %d of its chunks", k, len(got), err, len(want))
		}
		log.dropSealed([]histSegment{seg})
	}
}

// appendEvent logs ev as the next decision of a log of either form, its
// task's executive ID being id.
func appendEvent(t testing.TB, l *dispatchLog, id int, ev DispatchEvent) {
	t.Helper()
	var r [3]rat.Rat
	for i, s := range []string{ev.Start, ev.Finish, ev.Tardiness} {
		var err error
		if r[i], err = rat.Parse(s); err != nil {
			t.Fatal(err)
		}
	}
	l.name(id, ev.Task, logWeight)
	l.append(id, ev.Task, ev.Index, ev.Proc, r[0], r[1], ev.Deadline, r[2])
}

// TestColdRecordOmitsRepeatedStart: a record whose start equals the
// previous record's — every processor of a wide round starting at one
// time — carries coldStartSame and no start field, and renders back as
// the wire frame, non-integral starts and index points included.
func TestColdRecordOmitsRepeatedStart(t *testing.T) {
	const n = 100 // index points at 32, 64 and 96
	wire, cold := dispatchLog{}, dispatchLog{cold: true}
	for i := int64(0); i < n; i++ {
		start := rat.New(i/4+1, 3) // four decisions a start
		ev := DispatchEvent{Seq: i, Task: "w", Index: i, Proc: int(i % 4), Start: start.String(),
			Finish: start.Add(rat.One).String(), Deadline: i/4 + 2, Tardiness: "0"}
		appendEvent(t, &wire, 0, ev)
		appendEvent(t, &cold, 0, ev)
	}
	if got, want := readAll(&cold, 0, n), readAll(&wire, 0, n); !bytes.Equal(got, want) {
		t.Fatalf("cold render\n got %q\nwant %q", got, want)
	}
	var b [maxColdRecord]byte
	s := rat.New(5, 3)
	same := putColdRecord(b[:], s, 0, 0, 1, 0, s, s.Add(rat.One), 2, rat.Zero)
	if b[0]&coldStartSame == 0 {
		t.Fatalf("header %08b: a repeated start is not flagged", b[0])
	}
	if moved := putColdRecord(b[:], rat.New(4, 3), 0, 0, 1, 0, s, s.Add(rat.One), 2, rat.Zero); same != moved-1 {
		t.Fatalf("a record with a repeated start is %d B, with a moved one %d B; want one less", same, moved)
	}
}

// TestColdLogMatchesWireLog drives a wire log and a cold one through the
// same events, across many chunk boundaries of each, with a task that
// registers halfway. The cold log holds compact records from its first
// frame, open tail included, and closes a chunk when the next record might
// not fit in chunkBytes, as a wire log closes one on the next frame. It
// holds far fewer bytes than the wire log, and every reader still gets the
// wire log's bytes: any read through frames, from its chunk boundaries and
// either side of them, from every index point and either side of it, and
// the digest. A view published earlier, one before the late task's first
// record among them, stays what it was.
func TestColdLogMatchesWireLog(t *testing.T) {
	const n, late = 46000, 23000
	wire, cold := dispatchLog{}, dispatchLog{cold: true}
	var views []dispatchLog
	for i := int64(0); i < n; i++ {
		ev, _ := logEvent(i)
		id := int(i % 7)
		if i >= late && i%5 == 0 {
			id, ev.Task = 7, "late"
		}
		appendEvent(t, &wire, id, ev)
		appendEvent(t, &cold, id, ev)
		if i == 999 || i == late-1 || i == late {
			views = append(views, cold)
		}
	}
	if len(cold.full) < 3 || len(wire.full) < 3*len(cold.full) {
		t.Fatalf("cold log: %d closed chunks, wire log %d", len(cold.full), len(wire.full))
	}
	chunks := cold.chunks()
	for i, c := range chunks[:len(chunks)-1] {
		if !c.cold() || c.end() != chunks[i+1].first || len(c.data) > chunkBytes || len(c.data)+maxColdRecord <= chunkBytes {
			t.Fatalf("closed chunk %d: cold %v, seqs %d..%d, %d bytes of records", i, c.cold(), c.first, c.end(), len(c.data))
		}
	}
	if !cold.tail.cold() || cold.tail.end() != n || len(cold.tail.tasks) != 8 {
		t.Fatalf("the open tail of a cold log: cold %v, ends at %d, %d names", cold.tail.cold(), cold.tail.end(), len(cold.tail.tasks))
	}
	for _, c := range wire.chunks() {
		if c.cold() {
			t.Fatalf("the wire log holds a cold chunk at %d", c.first)
		}
	}
	if held := heldBytes(cold.chunks()); int64(held) != cold.resident || 4*cold.resident > wire.resident {
		t.Fatalf("cold log holds %d bytes (accounted %d), the wire log %d", held, cold.resident, wire.resident)
	}
	all := readAll(&wire, 0, n)
	offs := []int{0}
	for i, c := range all {
		if c == '\n' {
			offs = append(offs, i+1)
		}
	}
	froms := []int64{0, 1, 599, 1000, late - 1, late, n - 1, n}
	for _, c := range chunks[1:] {
		froms = append(froms, c.first-1, c.first, c.first+1)
	}
	for _, limit := range []int{1, 7, 256, n} {
		for _, from := range froms {
			if got := readAll(&cold, from, limit); !bytes.Equal(got, all[offs[from]:]) {
				t.Fatalf("frames from %d, %d at a time: the cold log's differ", from, limit)
			}
		}
	}
	var buf []byte
	for _, c := range chunks {
		if len(c.offs) != (c.n+coldStride-1)/coldStride {
			t.Fatalf("the chunk at %d holds %d records under %d offsets", c.first, c.n, len(c.offs))
		}
		for p := c.first; p < c.end(); p += coldStride {
			for _, from := range []int64{p - 1, p, p + 1} {
				if from < 0 || from >= n {
					continue
				}
				got, k := cold.frames(&buf, from, coldStride+1)
				if k == 0 || !bytes.Equal(got, all[offs[from]:offs[from+int64(k)]]) {
					t.Fatalf("%d frames from %d, beside an index point: the cold log's differ", k, from)
				}
			}
		}
	}
	for _, first := range []int64{0, 700, late, n - 3} {
		if got, want := cold.digest(first, 0), wire.digest(first, 0); got != want {
			t.Fatalf("digest from %d: %+v, want %+v", first, got, want)
		}
	}
	for _, view := range views {
		if got := readAll(&view, 0, 256); !bytes.Equal(got, all[:len(got)]) || bytes.Count(got, []byte{'\n'}) != int(view.len()) {
			t.Fatalf("the view published at %d of the cold log changed under it", view.len())
		}
	}
	if b, k := cold.frames(&buf, 3, 2); k != 2 || &b[0] != &buf[0] {
		t.Fatal("a cold chunk was not rendered into the caller's buffer")
	}
}

// FuzzColdFrameMatchesWire is the contract of the compact record: for any
// seq, task name, task weight and numbers, a cold chunk — the open tail,
// and the same chunk closed — renders the bytes a wire log holds, across
// however many chunks the wire log needs, which decode to the same event.
// It logs three records, the second with its own start, so each start is
// coded against a start that differs: in its numerator, up or down, and in
// its denominator; and so each index is coded against a prediction from
// its own start and the weight, whatever the weight is.
func FuzzColdFrameMatchesWire(f *testing.F) {
	type seed struct {
		seq               int64
		name              string
		id                uint16
		index, proc       int64
		sn, sd, fn, fd    int64
		deadline, tn, tdd int64
		sn2, sd2          int64
		e, p              int64
	}
	for _, s := range []seed{
		{0, "web", 0, 1, 0, 0, 1, 1, 1, 2, 0, 1, 1, 1, 1, 2},                // every field rebuilt
		{41, `q"uote\back`, 3, 7, 1, 5, 3, 8, 3, 3, 1, 3, 6, 3, 3, 4},       // non-integral start, finish ≠ start+1, tardy
		{9, "ctl\x00\x1f\n <&>", 1, 2, 15, 7, 2, 9, 2, 5, 2, 7, 7, 3, 1, 3}, // proc 15, one denominator to the next
		{12, "wide", 4, 3, 1000, 9, 1, 10, 1, 11, 0, 1, 4, 1, 1, 3},         // proc ≥ 15; start 9 → 4: a negative delta
		{12, "neg", 4, 3, -1, 100, 1, 101, 1, 3, 0, 1, 100, 1, 0, 5},        // negative proc; deadline below start; weight 0
		{7, "below", 2, 5, 14, 21, 4, 25, 4, -9, 1, 4, 11, 4, -3, 8},        // deadline below a non-integral start; negative weight
		{3, "den", 1, 2, 3, 1, 2, 3, 4, 2, 0, 1, 3, 2, 5, 5},                // finish has start+1's numerator, not its denominator
		{1 << 40, "é日本", 999, -3, -1, -7, 2, -5, 2, -2, -1, 2, 3, 2, 7, 1},  // negative start; weight above 1
		{math.MaxInt64 - 2, "x", 65535, math.MinInt64, math.MaxInt64, math.MinInt64, 1, math.MaxInt64, 3, math.MinInt64, math.MaxInt64, 1, math.MaxInt64, 1, math.MaxInt64, math.MaxInt64},
		{5, "bad\xffutf8", 2, math.MaxInt64, math.MinInt64, 1, math.MaxInt64, -1, math.MaxInt64, math.MaxInt64, math.MinInt64, 3, math.MinInt64 + 1, 1, math.MinInt64, math.MaxInt64},
		{200, "heavy", 5, 101, 1, 200, 1, 201, 1, 202, 0, 1, 201, 1, 1, 2},          // index in the window of start 200 and 201 at weight 1/2
		{6, strings.Repeat("\xff", 4000), 1, 2, 0, 2, 1, 3, 1, 4, 0, 1, 3, 1, 1, 1}, // ≈ 24 KB wire frames: the wire log closes a chunk
	} {
		f.Add(s.seq, s.name, s.id, s.index, s.proc, s.sn, s.sd, s.fn, s.fd, s.deadline, s.tn, s.tdd, s.sn2, s.sd2, s.e, s.p)
	}
	f.Fuzz(func(t *testing.T, seq int64, name string, id uint16, index, proc, sn, sd, fn, fd, deadline, tn, td, sn2, sd2, e, p int64) {
		if seq < 0 {
			seq = ^seq
		}
		seq = min(seq, math.MaxInt64-3)
		mk := func(n, d int64) rat.Rat {
			if d == 0 || d == math.MinInt64 {
				d = 1
			}
			return rat.New(n, d)
		}
		start, finish, tard, start2 := mk(sn, sd), mk(fn, fd), mk(tn, td), mk(sn2, sd2)
		starts := []rat.Rat{start, start2, start}
		l, w := dispatchLog{cold: true, tail: chunk{first: seq}}, dispatchLog{tail: chunk{first: seq}}
		l.name(int(id), name, model.W(e, p))
		for _, s := range starts {
			l.append(int(id), name, index, int(proc), s, finish, deadline, tard)
			w.append(int(id), name, index, int(proc), s, finish, deadline, tard)
		}
		wire := readAll(&w, seq, len(starts))
		want := appendDispatchFrame(nil, seq+1, name, index, int(proc), start2, finish, deadline, tard)
		var buf, wbuf []byte
		for _, closed := range []bool{false, true} {
			if closed {
				l.cut()
			}
			if c := l.chunks(); len(c) != 1 || !c[0].cold() || (len(l.full) == 1) != closed {
				t.Fatalf("closed %v: the chunk is not cold, or not where it should be", closed)
			}
			got, n := l.frames(&buf, seq, len(starts))
			if n != len(starts) || !bytes.Equal(got, wire) {
				t.Fatalf("cold render (closed %v)\n got %q\nwant %q", closed, got, wire)
			}
			for k := range starts {
				frame, _ := w.frames(&wbuf, seq+int64(k), 1)
				if one, n := l.frames(&buf, seq+int64(k), 1); n != 1 || !bytes.Equal(one, frame) {
					t.Fatalf("cold render of frame %d (closed %v)\n got %q\nwant %q", k, closed, one, frame)
				}
			}
		}
		second, _ := l.frames(&buf, seq+1, 1)
		var fromCold, fromWire DispatchEvent
		if err := json.Unmarshal(second, &fromCold); err != nil {
			t.Fatalf("cold frame %q: %v", second, err)
		}
		if err := json.Unmarshal(want, &fromWire); err != nil || fromCold != fromWire {
			t.Fatalf("cold frame decodes to %+v, the wire frame to %+v (%v)", fromCold, fromWire, err)
		}
		ev := DispatchEvent{
			Seq: seq + 1, Task: name, Index: index, Proc: int(proc),
			Start: start2.String(), Finish: finish.String(), Deadline: deadline, Tardiness: tard.String(),
		}
		if utf8.ValidString(name) && fromCold != ev {
			t.Fatalf("cold frame decodes to %+v, want %+v", fromCold, ev)
		}
	})
}

// TestWindowIndexPredictsTheWindow: a subtask that runs in its window
// (eqs. 2–5, θ = 0) has an index the prediction from its slot misses by 0
// or +1, for every weight of a small period and every slot of the first
// windows, and by at most 1 either way for a weight of MaxPeriod — the
// three residuals a record codes in two bits. A weight that is not
// positive predicts something all the same.
func TestWindowIndexPredictsTheWindow(t *testing.T) {
	check := func(e, p, i int64, far bool) {
		sub := model.Subtask{Task: &model.Task{W: model.W(e, p)}, Index: i}
		rate := windowRate(sub.Task.W)
		for slot := sub.Release(); slot < sub.Deadline(); slot++ {
			res := i - windowIndex(slot, rate)
			if res < 0 && !far || res < -1 || res > 1 {
				t.Fatalf("weight %d/%d, subtask %d in slot %d: residual %d", e, p, i, slot, res)
			}
		}
	}
	for p := int64(1); p <= 40; p++ {
		for e := int64(1); e <= p; e++ {
			for i := int64(1); i <= 3*e+1; i++ {
				check(e, p, i, false)
			}
		}
	}
	for _, e := range []int64{1, 3, MaxPeriod/2 + 1, MaxPeriod - 1, MaxPeriod} {
		for _, i := range []int64{1, 2, e, e + 1, 5 * e} {
			check(e, MaxPeriod, i, true)
		}
	}
	for _, w := range []model.Weight{model.W(0, 5), model.W(-3, 8), model.W(3, -8), model.W(math.MinInt64, math.MaxInt64)} {
		if r := windowRate(w); r != 0 || windowIndex(7, r) != 1 {
			t.Fatalf("weight %v: rate %d predicts %d", w, r, windowIndex(7, r))
		}
	}
}

package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"desyncpfair/internal/rat"
)

// Append stores ev — its Seq is assigned, not read — wakes followers, and
// returns the assigned Seq: the tests' way to fill a ring with whole
// events. A record holds the events a Tracer builds: ev.Tenant must be the
// ring's, and At and Lag, at most one of them set, exact rationals as
// rat.Rat renders them. Append panics on any other event, which the ring
// could not render back byte for byte.
func (r *Ring) Append(ev Event) int64 {
	if ev.Tenant != r.tenant {
		panic("obs: event of tenant " + strconv.Quote(ev.Tenant) + " appended to the ring of " + strconv.Quote(r.tenant))
	}
	rec := record{t: ev.T, cmd: ev.Cmd, durNs: ev.DurNs, dseq: ev.DSeq, count: ev.Count}
	switch {
	case ev.At != "" && ev.Lag != "":
		panic("obs: event has both at and lag")
	case ev.At != "":
		q := exact(ev.At)
		rec.num, rec.den = q.Num(), q.Den()
	case ev.Lag != "":
		q := exact(ev.Lag)
		rec.num, rec.den = q.Num(), -q.Den()
	}
	return r.add(rec, ev.Op, ev.Stage, ev.Task, ev.Err)
}

// exact parses s, which must be a rational in the form rat.Rat renders.
func exact(s string) rat.Rat {
	q, err := rat.Parse(s)
	if err != nil || q.String() != s {
		panic("obs: " + strconv.Quote(s) + " is not an exact rational as rat.Rat renders it")
	}
	return q
}

// since decodes everything r.AppendFrames returns from from on.
func since(t *testing.T, r *Ring, from int64) (events []Event, dropped int64) {
	t.Helper()
	frames, n, dropped := r.AppendFrames(nil, from, math.MaxInt)
	dec := json.NewDecoder(bytes.NewReader(frames))
	for i := 0; i < n; i++ {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("frame %d of %q: %v", i, frames, err)
		}
		events = append(events, ev)
	}
	return events, dropped
}

func TestRingAppendSince(t *testing.T) {
	r := NewRing("", 4)
	for i := 0; i < 3; i++ {
		seq := r.Append(Event{Stage: StageSubmit})
		if seq != int64(i) {
			t.Fatalf("append %d: got seq %d", i, seq)
		}
	}
	evs, dropped := since(t, r, 0)
	if dropped != 0 || len(evs) != 3 {
		t.Fatalf("since 0: got %d events, %d dropped", len(evs), dropped)
	}
	for i, ev := range evs {
		if ev.Seq != int64(i) {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
	}
	evs, _ = since(t, r, 2)
	if len(evs) != 1 || evs[0].Seq != 2 {
		t.Fatalf("since 2: got %+v", evs)
	}
	if evs, _ := since(t, r, 99); evs != nil {
		t.Fatalf("since past end should be empty, got %+v", evs)
	}
}

// TestRingWrapDrops: once the ring wraps, AppendFrames reports exactly how
// many requested events were evicted and returns the retained suffix in
// order.
func TestRingWrapDrops(t *testing.T) {
	r := NewRing("", 3)
	for i := 0; i < 10; i++ {
		r.Append(Event{Cmd: int64(i)})
	}
	evs, dropped := since(t, r, 0)
	if dropped != 7 {
		t.Errorf("dropped: got %d, want 7", dropped)
	}
	if len(evs) != 3 {
		t.Fatalf("retained: got %d, want 3", len(evs))
	}
	for i, ev := range evs {
		if want := int64(7 + i); ev.Seq != want || ev.Cmd != want {
			t.Errorf("event %d: seq %d cmd %d, want %d", i, ev.Seq, ev.Cmd, want)
		}
	}
	// Asking from inside the retained window drops nothing.
	if _, _, dropped := r.AppendFrames(nil, 8, math.MaxInt); dropped != 0 {
		t.Errorf("AppendFrames from 8 dropped %d, want 0", dropped)
	}
}

// closed reports whether ch is closed, without waiting.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestRingNextAppend: a channel taken before an append is closed by it; one
// taken after stays open until the next; everyone who asks in between
// shares one.
func TestRingNextAppend(t *testing.T) {
	r := NewRing("", 8)
	ch := r.NextAppend()
	if closed(ch) {
		t.Fatal("closed before any append")
	}
	r.Append(Event{})
	if !closed(ch) {
		t.Fatal("an append left the channel taken before it open")
	}
	after := r.NextAppend()
	if closed(after) {
		t.Fatal("a channel taken after an append is closed already")
	}
	if r.NextAppend() != after {
		t.Fatal("two takers before one append got different channels")
	}
	r.Append(Event{})
	if !closed(after) {
		t.Fatal("the next append left the channel taken after the last one open")
	}
}

// TestRingWakeSeesAppend: whoever wakes on NextAppend already reads the
// event that woke it.
func TestRingWakeSeesAppend(t *testing.T) {
	r := NewRing("", 8)
	for i := 0; i < 200; i++ {
		ch := r.NextAppend()
		want := r.Next() + 1
		go r.Append(Event{})
		<-ch
		if got := r.Next(); got < want {
			t.Fatalf("round %d: woken with Next() = %d, want %d", i, got, want)
		}
	}
}

// TestTracerLifecycle drives a full traced command with a stepping fake
// clock and asserts every timestamp and duration exactly.
func TestTracerLifecycle(t *testing.T) {
	start := time.Unix(1700000000, 0)
	clock := NewFake(start, time.Millisecond)
	ring := NewRing("acme", 16)
	tr := NewTracer(ring, clock)

	at := rat.FromInt(3)
	tr.Begin("advance", "web", &at)
	tr.Stage(StageWALAppend, nil)
	tr.Dispatch(5, 2, rat.New(1, 2))
	tr.Stage(StageApply, nil)

	evs, _ := since(t, ring, 0)
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	wantStages := []string{StageSubmit, StageWALAppend, StageDispatch, StageApply}
	// The clock steps 1ms per read: one read per stage, the dispatch event
	// included.
	wantRead := []int{0, 1, 2, 3}
	for i, ev := range evs {
		if ev.Stage != wantStages[i] {
			t.Errorf("event %d stage %q, want %q", i, ev.Stage, wantStages[i])
		}
		if ev.Cmd != 1 || ev.Tenant != "acme" || ev.Op != "advance" {
			t.Errorf("event %d: %+v", i, ev)
		}
		read := time.Duration(wantRead[i]) * time.Millisecond
		if want := start.Add(read).UnixNano(); ev.T != want {
			t.Errorf("event %d timestamp %d, want %d", i, ev.T, want)
		}
		if want := read.Nanoseconds(); ev.DurNs != want {
			t.Errorf("event %d durNs %d, want %d", i, ev.DurNs, want)
		}
	}
	if evs[0].Task != "web" || evs[0].At != "3" {
		t.Errorf("submit event detail: %+v", evs[0])
	}
	if d := evs[2]; d.DSeq != 5 || d.Count != 2 || d.Lag != "1/2" || d.Task != "" {
		t.Errorf("dispatch event detail: %+v", d)
	}
}

// TestTracerNoop: before any Begin there is no open command, so a Stage
// emits nothing, and a Dispatch emits an event with cmd 0 and no duration.
func TestTracerNoop(t *testing.T) {
	ring := NewRing("acme", 16)
	tr := NewTracer(ring, NewFake(time.Unix(1700000000, 0), time.Millisecond))
	tr.Stage(StageApply, nil)
	tr.Stage(StageWALAppend, errors.New("disk full"))
	if n := ring.Next(); n != 0 {
		t.Fatalf("stages before any Begin emitted %d events", n)
	}
	tr.Dispatch(0, 1, rat.Zero)
	evs, _ := since(t, ring, 0)
	if len(evs) != 1 {
		t.Fatalf("got %d events, want the dispatch alone", len(evs))
	}
	if d := evs[0]; d.Stage != StageDispatch || d.Cmd != 0 || d.DurNs != 0 || d.Op != "" || d.Count != 1 || d.Lag != "0" {
		t.Errorf("dispatch before any Begin: %+v", d)
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing("", 64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for i := 0; i < 100; i++ {
				r.Append(Event{Stage: StageDispatch})
				buf, _, _ = r.AppendFrames(buf[:0], 0, 64)
			}
		}()
	}
	wg.Wait()
	if r.Next() != 800 {
		t.Errorf("next seq: got %d, want 800", r.Next())
	}
}

// FuzzTraceRingMatchesMarshal is the contract of the ring's compact
// records: whatever events were appended — every stage, with and without
// task, at, lag and err, below, at and above the capacity, across growth,
// wraparound and string-table compaction — reading from a position with
// AppendFrames, limit frames a call, into a buffer that holds a prefix,
// keeps the prefix and appends json.Marshal of each retained event + '\n',
// and the first read drops exactly the events before the last capacity
// ones, as a ring of whole Events would.
func FuzzTraceRingMatchesMarshal(f *testing.F) {
	f.Add(int64(1), uint16(4), uint16(3), int64(0), "web", uint16(0), []byte(nil))
	f.Add(int64(2), uint16(16), uint16(16), int64(5), "", uint16(255), []byte("{\"seq\":0}\n"))
	f.Add(int64(3), uint16(5), uint16(400), int64(0), "a<b>&\"c\"", uint16(6), []byte("x"))
	f.Add(int64(4), uint16(100), uint16(700), int64(650), "\xff\xfe", uint16(299), []byte(nil))
	f.Add(int64(5), uint16(1), uint16(9), int64(-3), "x", uint16(1), []byte("\n\n"))
	f.Fuzz(func(t *testing.T, seed int64, capRaw, nRaw uint16, from int64, name string, limitRaw uint16, prefix []byte) {
		capacity := 1 + int(capRaw%300)
		n := int(nRaw % 1000)
		limit := 1 + int(limitRaw%300)
		rng := rand.New(rand.NewSource(seed))
		pool := []string{name, "web", "db", "job-submit", "advance", "server: no such task"}
		str := func() string {
			switch k := rng.Intn(8); {
			case k < 2:
				return ""
			case k < 6:
				return pool[rng.Intn(len(pool))]
			default: // fresh strings make the string table compact
				return "s" + strconv.Itoa(rng.Intn(1<<20))
			}
		}
		num := func() int64 {
			if rng.Intn(3) == 0 {
				return 0 // omitted from the frame
			}
			return rng.Int63n(1<<40) - 1<<39
		}
		exactStr := func() string {
			return rat.New(rng.Int63n(1<<30)-1<<29, 1+rng.Int63n(1<<20)).String()
		}
		stages := []string{StageSubmit, StageWALAppend, StageApply, StageDispatch, "other"}
		r := NewRing("t-"+name, capacity)
		var all []Event
		check := func(from int64) {
			lo := max(from, 0)
			oldest := int64(max(len(all)-capacity, 0))
			want := all[min(max(lo, oldest), int64(len(all))):]
			buf := append([]byte(nil), prefix...)
			pos := from
			for read := 0; ; read++ {
				var got int
				var dropped int64
				buf, got, dropped = r.AppendFrames(buf, pos, limit)
				wantDropped := int64(0)
				if read == 0 {
					wantDropped = max(oldest-lo, 0)
				}
				if dropped != wantDropped {
					t.Fatalf("read %d from %d after %d appends: dropped %d, want %d", read, pos, len(all), dropped, wantDropped)
				}
				if left := len(want) - read*limit; got != min(max(left, 0), limit) {
					t.Fatalf("read %d from %d after %d appends: %d frames, want %d of %d", read, pos, len(all), got, min(max(left, 0), limit), len(want))
				}
				pos = max(pos, 0) + dropped + int64(got)
				if got == 0 {
					break
				}
			}
			if !bytes.HasPrefix(buf, prefix) {
				t.Fatalf("reads from %d overwrote the buffer's prefix %q: %q", from, prefix, buf)
			}
			frames := buf[len(prefix):]
			for _, ev := range want {
				b, err := json.Marshal(ev)
				if err != nil {
					t.Fatal(err)
				}
				w := append(b, '\n')
				if !bytes.HasPrefix(frames, w) {
					t.Fatalf("frame of seq %d:\n got %s\nwant %s", ev.Seq, frames[:min(len(frames), len(w))], w)
				}
				frames = frames[len(w):]
			}
			if len(frames) != 0 {
				t.Fatalf("reads from %d appended %q after the last retained frame", from, frames)
			}
		}
		for i := 0; i < n; i++ {
			ev := Event{
				T: num(), Tenant: r.tenant, Cmd: num(), Op: str(),
				Stage: stages[rng.Intn(len(stages))], Task: str(),
				DSeq: num(), Count: num(), DurNs: num(), Err: str(),
			}
			switch rng.Intn(3) {
			case 0:
				ev.At = exactStr()
			case 1:
				ev.Lag = exactStr()
			}
			if seq := r.Append(ev); seq != int64(i) {
				t.Fatalf("append %d got seq %d", i, seq)
			}
			ev.Seq = int64(i)
			all = append(all, ev)
			if rng.Intn(16) == 0 {
				check(rng.Int63n(int64(i)+2) - 1)
			}
		}
		check(from)
		check(0)
	})
}

// TestRingRecordHoldsNoPointers: a record has no pointer-kinded field, so
// a ring's slots are memory the GC never scans, and it is 64 bytes at most.
// A field added later that brings scanning back fails here.
func TestRingRecordHoldsNoPointers(t *testing.T) {
	typ := reflect.TypeOf(record{})
	if typ.Size() > 64 {
		t.Errorf("record is %d bytes, want ≤ 64", typ.Size())
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint,
			reflect.Bool, reflect.Float32, reflect.Float64:
		default:
			t.Errorf("record field %s is a %s: a pointer-free kind keeps the ring unscanned", f.Name, f.Type.Kind())
		}
	}
}

// TestRingGrowsToCapacity: a ring allocates its records as it fills,
// doubling from a small first slice, and a full ring holds 64 bytes per
// event plus its few strings.
func TestRingGrowsToCapacity(t *testing.T) {
	r := NewRing("acme", 4096)
	if b := r.Bytes(); b > 64 {
		t.Fatalf("an empty ring holds %d bytes", b)
	}
	for i := 0; i < 10000; i++ {
		r.Append(Event{Tenant: "acme", Op: "advance", Stage: StageApply, Cmd: int64(i)})
		if i == minRingSlots {
			if b := r.Bytes(); b > 2*minRingSlots*64+200 {
				t.Fatalf("after %d events the ring holds %d bytes", i+1, b)
			}
		}
	}
	if b, want := r.Bytes(), 4096*64+200; b > want {
		t.Fatalf("a full ring holds %d bytes, want ≤ %d", b, want)
	}
}

// TestRingStringTableBounded: a ring whose events name ever new strings
// keeps a string table bounded by what it retains, not by what it saw.
func TestRingStringTableBounded(t *testing.T) {
	r := NewRing("acme", 16)
	for i := 0; i < 100000; i++ {
		r.Append(Event{Tenant: "acme", Stage: StageSubmit, Task: "task-" + strconv.Itoa(i)})
	}
	if n := len(r.strs); n > 1+4*16+max(4*16, 64) {
		t.Fatalf("after 100000 distinct names the string table holds %d entries", n)
	}
	evs, _ := since(t, r, 0)
	if last := evs[len(evs)-1]; last.Task != "task-99999" || len(evs) != 16 {
		t.Fatalf("retained %d events, the last naming %q", len(evs), last.Task)
	}
}

// TestTraceReadAllocs counts what one full read of a trace ring allocates:
// a 4096-event ring filled through the Tracer by 1100 commands, each a
// submit naming a virtual time, a wal-append, a dispatch with a lag and an
// apply, read 256 frames a call into one reused buffer, as the trace
// stream reads it. A read renders into that buffer, so what is left is
// about one string per event that names a time (at or lag) and a few
// allocations per call. The bound leaves the Go version room (ROADMAP 23).
// Under the race detector the count is not the program's (raceEnabled).
func TestTraceReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled encoder state, so the count is not the program's")
	}
	ring := NewRing("acme", 4096)
	tr := NewTracer(ring, NewFake(time.Unix(1700000000, 0), time.Microsecond))
	for c := int64(0); c < 1100; c++ {
		at := rat.New(3*c+1, 3)
		tr.Begin("job-submit", "web", &at)
		tr.Stage(StageWALAppend, nil)
		tr.Dispatch(4*c, 4, rat.New(1+c%5, 8))
		tr.Stage(StageApply, nil)
	}
	var buf []byte
	allocs := testing.AllocsPerRun(10, func() {
		read := 0
		for pos := int64(0); ; {
			var n int
			var dropped int64
			buf, n, dropped = ring.AppendFrames(buf[:0], pos, 256)
			if n == 0 {
				break
			}
			pos += dropped + int64(n)
			read += n
		}
		if read != 4096 {
			t.Fatalf("a full read returned %d frames, want 4096", read)
		}
	})
	if allocs > 2300 {
		t.Errorf("one full read of a 4096-event ring: %v allocations, want ≤ 2300", allocs)
	}
	t.Logf("one full read of a 4096-event ring: %v allocations", allocs)
}

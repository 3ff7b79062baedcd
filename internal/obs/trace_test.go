package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"desyncpfair/internal/rat"
)

// since decodes r.FramesSince(from).
func since(t *testing.T, r *Ring, from int64) (events []Event, dropped int64) {
	t.Helper()
	frames, dropped := r.FramesSince(from)
	for _, f := range frames {
		var ev Event
		if err := json.Unmarshal(f, &ev); err != nil {
			t.Fatalf("frame %q: %v", f, err)
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

// TestRingWrapDrops: once the ring wraps, FramesSince reports exactly how
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
	if _, dropped := r.FramesSince(8); dropped != 0 {
		t.Errorf("FramesSince(8) dropped %d, want 0", dropped)
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
	cmd, t0 := tr.Begin("advance", "web", &at)
	if cmd != 1 {
		t.Fatalf("first cmd id: got %d", cmd)
	}
	tr.Stage(cmd, t0, "advance", StageWALAppend, "")
	tr.Dispatch(cmd, t0, "advance", 5, 2, rat.New(1, 2))
	tr.Stage(cmd, t0, "advance", StageApply, "")

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

// TestTracerNoop: a nil tracer and a tracer without a ring are free to
// call — the untraced path must not need guards at every call site.
func TestTracerNoop(t *testing.T) {
	var tr *Tracer
	cmd, t0 := tr.Begin("advance", "", nil)
	tr.Stage(cmd, t0, "advance", StageApply, "")
	tr.Dispatch(cmd, t0, "advance", 0, 1, rat.Zero)
	if tr.Ring() != nil {
		t.Error("nil tracer should have nil ring")
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing("", 64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Append(Event{Stage: StageDispatch})
				r.FramesSince(0)
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
// wraparound and string-table compaction — FramesSince(from) returns
// json.Marshal of each retained event + '\n', and drops exactly the events
// before the last capacity ones, as a ring of whole Events would.
func FuzzTraceRingMatchesMarshal(f *testing.F) {
	f.Add(int64(1), uint16(4), uint16(3), int64(0), "web")
	f.Add(int64(2), uint16(16), uint16(16), int64(5), "")
	f.Add(int64(3), uint16(5), uint16(400), int64(0), "a<b>&\"c\"")
	f.Add(int64(4), uint16(100), uint16(700), int64(650), "\xff\xfe")
	f.Add(int64(5), uint16(1), uint16(9), int64(-3), "x")
	f.Fuzz(func(t *testing.T, seed int64, capRaw, nRaw uint16, from int64, name string) {
		capacity := 1 + int(capRaw%300)
		n := int(nRaw % 1000)
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
			frames, dropped := r.FramesSince(from)
			lo := max(from, 0)
			oldest := int64(max(len(all)-capacity, 0))
			wantDropped := max(oldest-lo, 0)
			if dropped != wantDropped {
				t.Fatalf("FramesSince(%d) after %d appends: dropped %d, want %d", from, len(all), dropped, wantDropped)
			}
			want := all[min(max(lo, oldest), int64(len(all))):]
			if len(frames) != len(want) {
				t.Fatalf("FramesSince(%d) after %d appends: %d frames, want %d", from, len(all), len(frames), len(want))
			}
			for i, ev := range want {
				b, err := json.Marshal(ev)
				if err != nil {
					t.Fatal(err)
				}
				if w := append(b, '\n'); !bytes.Equal(frames[i], w) {
					t.Fatalf("frame of seq %d:\n got %s\nwant %s", ev.Seq, frames[i], w)
				}
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

package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
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
	r := NewRing(4)
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
	r := NewRing(3)
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
	r := NewRing(8)
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
	r := NewRing(8)
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
	ring := NewRing(16)
	tr := NewTracer(ring, clock)

	cmd, t0 := tr.Begin("acme", "advance", "web", "3")
	if cmd != 1 {
		t.Fatalf("first cmd id: got %d", cmd)
	}
	tr.Stage("acme", cmd, t0, "advance", StageWALAppend, "")
	tr.Dispatch("acme", cmd, t0, "advance", 5, 2, "1/2")
	tr.Stage("acme", cmd, t0, "advance", StageApply, "")

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
	cmd, t0 := tr.Begin("x", "advance", "", "")
	tr.Stage("x", cmd, t0, "advance", StageApply, "")
	tr.Dispatch("x", cmd, t0, "advance", 0, 1, "0")
	if tr.Ring() != nil {
		t.Error("nil tracer should have nil ring")
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(64)
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

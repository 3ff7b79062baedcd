package server

import (
	"errors"
	"net/http"
	"runtime"
	"testing"

	"desyncpfair/internal/model"
	"desyncpfair/internal/online"
)

// TestRingFullBackpressure pins the bounded-ring contract: when the loop
// is busy and the ring is at capacity, exec refuses immediately with
// ErrRingFull (mapped to 429) instead of blocking the handler.
func TestRingFullBackpressure(t *testing.T) {
	tn, err := newTenant("ring", 1, "", 1) // ring capacity 1
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()

	// Park the loop inside a control command so the ring cannot drain.
	entered := make(chan struct{})
	gate := make(chan struct{})
	ctlDone := make(chan cmdResult, 1)
	go func() {
		ctlDone <- tn.ctlExec(&command{kind: cmdCtl, fn: func() {
			close(entered)
			<-gate
		}})
	}()
	<-entered

	// Fill the single ring slot.
	queued := make(chan cmdResult, 1)
	go func() { queued <- tn.exec(&command{kind: cmdDrain}) }()
	for len(tn.ring) == 0 {
		runtime.Gosched()
	}

	res := tn.exec(&command{kind: cmdDrain})
	if !errors.Is(res.err, ErrRingFull) {
		t.Fatalf("exec on a full ring: err = %v, want ErrRingFull", res.err)
	}
	if got := statusOf(res.err, http.StatusBadRequest); got != http.StatusTooManyRequests {
		t.Fatalf("statusOf(ErrRingFull) = %d, want 429", got)
	}

	// Release the loop: the queued command must complete normally.
	close(gate)
	if r := <-ctlDone; r.err != nil {
		t.Fatalf("control command: %v", r.err)
	}
	if r := <-queued; r.err != nil {
		t.Fatalf("queued drain after release: %v", r.err)
	}
}

// TestCloseDrainsBacklogThenRefuses pins the close protocol: commands
// accepted before the close gate are applied (not lost, not failed), and
// commands after it fail errTenantGone.
func TestCloseDrainsBacklogThenRefuses(t *testing.T) {
	tn, err := NewTenant("closing", 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tn.RegisterTask("a", model.W(1, 2)); err != nil {
		t.Fatal(err)
	}

	// Park the loop and stuff the ring with submits while it cannot drain.
	entered := make(chan struct{})
	gate := make(chan struct{})
	ctlDone := make(chan cmdResult, 1)
	go func() {
		ctlDone <- tn.ctlExec(&command{kind: cmdCtl, fn: func() {
			close(entered)
			<-gate
		}})
	}()
	<-entered
	const backlog = 5
	pending := make(chan cmdResult, backlog)
	for i := 0; i < backlog; i++ {
		go func() {
			pending <- tn.exec(&command{kind: cmdSubmit, submit: SubmitJobRequest{Task: "a"}})
		}()
	}
	for len(tn.ring) < backlog {
		runtime.Gosched()
	}

	closed := make(chan struct{})
	go func() {
		close(gate) // un-park the loop as Close starts racing it
		tn.Close()
		close(closed)
	}()
	<-ctlDone
	for i := 0; i < backlog; i++ {
		if r := <-pending; r.err != nil {
			t.Fatalf("backlogged submit %d failed across close: %v", i, r.err)
		}
	}
	<-closed

	if _, _, err := tn.SubmitJob("a", "", 0); !errors.Is(err, errTenantGone) {
		t.Fatalf("submit after close: err = %v, want errTenantGone", err)
	}
	select {
	case <-tn.Closed():
	default:
		t.Fatal("Closed() channel not closed after Close")
	}
	tn.Close() // idempotent
}

// TestSnapshotReadersSeeClosedTenantState pins that the read paths stay
// serviceable after close: the last published snapshot remains readable
// (streams use it to flush before ending).
func TestSnapshotReadersSeeClosedTenantState(t *testing.T) {
	tn, err := NewTenant("readers", 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tn.RegisterTask("a", model.W(1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tn.SubmitJob("a", "", 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tn.Drain(); err != nil {
		t.Fatal(err)
	}
	want := tn.Info()
	if want.Dispatches == 0 {
		t.Fatal("drain dispatched nothing")
	}
	tn.Close()
	if got := tn.Info(); got != want {
		t.Fatalf("Info after close = %+v, want %+v", got, want)
	}
	for seq := int64(0); seq < want.Dispatches; seq++ {
		if ev, ok := tn.eventAt(seq); !ok || ev.Seq != seq || ev.Task != "a" {
			t.Fatalf("eventAt(%d) after close = %+v, %v", seq, ev, ok)
		}
	}
	if _, ok := tn.eventAt(want.Dispatches); ok || tn.LogLen() != want.Dispatches {
		t.Fatalf("the log after close holds more than the %d events dispatched", want.Dispatches)
	}
}

// TestRestoreReinstatesOnlyAQueuedShrink: a snapshot's pendingM is
// reinstated by asking the ledger for the drain again, so only a target it
// would queue — below both m and Σwt — survives a restore; anything else
// would have applied (or never been accepted) on the server that wrote
// the snapshot, and the checkpoint is refused.
func TestRestoreReinstatesOnlyAQueuedShrink(t *testing.T) {
	ex := online.New(3, nil)
	for _, name := range []string{"a", "b"} {
		if _, err := ex.Register(name, model.W(1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	cp := tenantCheckpoint{ID: "x", MaxTar: "0", Exec: ex.Checkpoint()} // m = 3, Σwt = 2
	for pending, ok := range map[int]bool{0: true, 1: true, 2: false, 3: false, 4: false, -1: false, MaxM + 1: false} {
		cp.PendingM = pending
		tn, err := restoreTenant(cp, 0)
		if (err == nil) != ok {
			t.Errorf("pendingM = %d: err = %v, want restorable = %v", pending, err, ok)
		}
		if err != nil {
			continue
		}
		if info := tn.Info(); info.M != 3 || info.PendingM != pending || info.Utilization != "2" {
			t.Errorf("pendingM = %d restored as %+v", pending, info)
		}
		tn.Close()
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"desyncpfair/internal/faultfs"
	"desyncpfair/internal/hop/hoptest"
	"desyncpfair/internal/model"
	"desyncpfair/internal/online"
	"desyncpfair/internal/wal"
)

// TestRingFullBackpressure pins the bounded-ring contract: when the loop
// is busy and the ring holds defaultSubmitRing commands, exec refuses
// immediately with ErrRingFull (mapped to 429) instead of blocking the
// handler; released, the loop applies every queued command.
func TestRingFullBackpressure(t *testing.T) {
	tn, err := NewTenant("ring", 1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()

	// Park the loop inside a control command so the ring cannot drain.
	entered, gate := make(chan struct{}), make(chan struct{})
	ctlDone := make(chan error, 1)
	go func() {
		ctlDone <- tn.onLoop(func() {
			close(entered)
			<-gate
		})
	}()
	<-entered

	// Fill every ring slot.
	drain := func() (wal.Commit, error) {
		_, c, err := tn.applyDrain()
		return c, err
	}
	queued := make(chan cmdResult, defaultSubmitRing)
	for i := 0; i < defaultSubmitRing; i++ {
		go func() { queued <- tn.exec(&command{fn: drain}) }()
	}
	for tn.Queued() < defaultSubmitRing {
		runtime.Gosched()
	}

	res := tn.exec(&command{fn: drain})
	if !errors.Is(res.err, ErrRingFull) {
		t.Fatalf("exec on a full ring: err = %v, want ErrRingFull", res.err)
	}
	if got := statusOf(res.err, http.StatusBadRequest); got != http.StatusTooManyRequests {
		t.Fatalf("statusOf(ErrRingFull) = %d, want 429", got)
	}

	// Release the loop: the queued commands must complete normally.
	close(gate)
	if err := <-ctlDone; err != nil {
		t.Fatalf("control command: %v", err)
	}
	for i := 0; i < defaultSubmitRing; i++ {
		if r := <-queued; r.err != nil {
			t.Fatalf("queued drain after release: %v", r.err)
		}
	}
}

// TestRefusedCommandNeverRuns: a command refused before the loop reached
// it — by a full ring (ErrRingFull), or because it queued behind a stop
// (errTenantGone) — never runs its closure, and every public method that
// sent one answers the zero value. That is what makes an answer captured
// in a command's closure race-free: the loop writes it before completing
// the command, or never.
func TestRefusedCommandNeverRuns(t *testing.T) {
	var runs atomic.Int32
	zero := func(vs ...any) bool {
		for _, v := range vs {
			if !reflect.ValueOf(v).IsZero() {
				return false
			}
		}
		return true
	}
	// Each send reports whether the answer it got besides its error is zero.
	sends := []func(tn *Tenant) (bool, error){
		func(tn *Tenant) (bool, error) {
			c, err := tn.do(func() (wal.Commit, error) { runs.Add(1); return wal.Commit{}, nil })
			return zero(c), err
		},
		func(tn *Tenant) (bool, error) {
			d, c, err := tn.RegisterTask("b", model.W(1, 4))
			return zero(d, c), err
		},
		func(tn *Tenant) (bool, error) {
			c, err := tn.UnregisterTask("a")
			return zero(c), err
		},
		func(tn *Tenant) (bool, error) {
			r, c, err := tn.SubmitJobReq(SubmitJobRequest{Task: "a"})
			return zero(r, c), err
		},
		func(tn *Tenant) (bool, error) {
			r, c, err := tn.SubmitJobs([]SubmitJobRequest{{Task: "a"}})
			return zero(r, c), err
		},
		func(tn *Tenant) (bool, error) {
			r, c, err := tn.Advance("", "1")
			return zero(r, c), err
		},
		func(tn *Tenant) (bool, error) {
			r, c, err := tn.Drain()
			return zero(r, c), err
		},
		func(tn *Tenant) (bool, error) {
			r, c, err := tn.Resize(2, false)
			return zero(r, c), err
		},
	}
	check := func(t *testing.T, i int, isZero bool, err, want error) {
		t.Helper()
		if !errors.Is(err, want) || !isZero {
			t.Errorf("send %d: zero answer %v, err %v; want a zero answer and %v", i, isZero, err, want)
		}
	}
	// parked is a tenant with one task whose loop is held in onLoop until
	// release is called.
	parked := func(t *testing.T) (tn *Tenant, release func()) {
		tn, err := NewTenant("refused", 1, "")
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := tn.RegisterTask("a", model.W(1, 2)); err != nil {
			t.Fatal(err)
		}
		entered, gate := make(chan struct{}), make(chan struct{})
		go tn.onLoop(func() {
			close(entered)
			<-gate
		})
		<-entered
		return tn, func() { close(gate) }
	}

	t.Run("ring full", func(t *testing.T) {
		tn, release := parked(t)
		defer tn.Close()
		for i := 0; i < defaultSubmitRing; i++ {
			go tn.onLoop(func() {})
		}
		for tn.Queued() < defaultSubmitRing {
			runtime.Gosched()
		}
		for i, send := range sends {
			isZero, err := send(tn)
			check(t, i, isZero, err, ErrRingFull)
		}
		release()
		if err := tn.onLoop(func() {}); err != nil { // behind every queued command
			t.Fatal(err)
		}
		if n := runs.Load(); n != 0 {
			t.Errorf("a refused closure ran %d times", n)
		}
	})

	t.Run("behind a stop", func(t *testing.T) {
		tn, release := parked(t)
		go tn.Close()
		for tn.Queued() < 1 {
			runtime.Gosched()
		}
		type answer struct {
			isZero bool
			err    error
		}
		answers := make([]chan answer, len(sends))
		for i, send := range sends {
			answers[i] = make(chan answer, 1)
			go func() {
				isZero, err := send(tn)
				answers[i] <- answer{isZero, err}
			}()
		}
		for tn.Queued() < 1+len(sends) {
			runtime.Gosched()
		}
		release()
		for i := range sends {
			a := <-answers[i]
			check(t, i, a.isZero, a.err, errTenantGone)
		}
		if n := runs.Load(); n != 0 {
			t.Errorf("a closure queued behind a stop ran %d times", n)
		}
	})
}

// TestServerCloseStopsInMemoryTenants: Close stops every tenant loop of a
// server with no journal, as it does a durable server's — each tenant's
// Closed channel is closed when Close returns, and a further command
// answers errTenantGone.
func TestServerCloseStopsInMemoryTenants(t *testing.T) {
	srv := New()
	h := srv.Handler()
	for i := 0; i < 5; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/tenants", strings.NewReader(fmt.Sprintf(`{"id":"t%d","m":1}`, i))))
		if rec.Code != http.StatusCreated {
			t.Fatalf("create t%d: %d %s", i, rec.Code, rec.Body)
		}
	}
	tenants := srv.allTenants()
	if len(tenants) != 5 {
		t.Fatalf("%d tenants, want 5", len(tenants))
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tn := range tenants {
		select {
		case <-tn.Closed():
		default:
			t.Fatalf("tenant %s: loop still running after Close", tn.ID())
		}
		if _, _, err := tn.SubmitJobReq(SubmitJobRequest{Task: "a"}); !errors.Is(err, errTenantGone) {
			t.Fatalf("tenant %s: submit after Close: err = %v, want errTenantGone", tn.ID(), err)
		}
	}
}

// TestCloseDrainsBacklogThenRefuses pins Close's place in the ring's FIFO
// order: commands queued before the stop are applied (not lost, not
// failed), and commands after it fail errTenantGone.
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
	ctlDone := make(chan error, 1)
	go func() {
		ctlDone <- tn.onLoop(func() {
			close(entered)
			<-gate
		})
	}()
	<-entered
	const backlog = 5
	pending := make(chan cmdResult, backlog)
	for i := 0; i < backlog; i++ {
		go func() {
			pending <- tn.exec(&command{job: wal.Job{Name: "a"}})
		}()
	}
	for tn.Queued() < backlog {
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

	if _, _, err := tn.SubmitJobReq(SubmitJobRequest{Task: "a"}); !errors.Is(err, errTenantGone) {
		t.Fatalf("submit after close: err = %v, want errTenantGone", err)
	}
	select {
	case <-tn.Closed():
	default:
		t.Fatal("Closed() channel not closed after Close")
	}
	tn.Close() // idempotent
}

// TestDrainerHandsOff pins the drainer hand-off: a drainer returns once
// the batch it found has applied, though commands keep queuing behind it,
// and the caller of the command then at the head of the queue drains
// those. Every batch but the last starts with a command that parks its
// drainer until released, so a drainer that went on past its own batch
// would park on the next one and never return. Across four hand-offs the
// journal holds the submits in the order they queued, one record per
// batch's run.
func TestDrainerHandsOff(t *testing.T) {
	tn, err := NewTenant("handoff", 1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()
	var journaled []string
	records := 0
	tn.SetJournal(func(r wal.Record) (wal.Commit, error) {
		if r.Op == wal.OpJobSubmit {
			records++
			for _, j := range r.SubmittedJobs() {
				journaled = append(journaled, j.Key)
			}
		}
		return wal.Commit{}, nil
	}, nil, func(error) {})
	if _, _, err := tn.RegisterTask("a", model.W(1, 2)); err != nil {
		t.Fatal(err)
	}
	within := func(what string, ch <-chan struct{}) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
	}
	queued := func(n int) {
		t.Helper()
		for end := time.Now().Add(10 * time.Second); tn.Queued() != n; {
			if time.Now().After(end) {
				t.Fatalf("%d commands queued, want %d", tn.Queued(), n)
			}
			runtime.Gosched()
		}
	}
	// park queues a command that parks its drainer: entered closes once it
	// runs, release lets it finish, returned closes once its caller has.
	type parker struct{ entered, release, returned chan struct{} }
	park := func() parker {
		p := parker{make(chan struct{}), make(chan struct{}), make(chan struct{})}
		go func() {
			if err := tn.onLoop(func() { close(p.entered); <-p.release }); err != nil {
				t.Error(err)
			}
			close(p.returned)
		}()
		return p
	}
	var want []string
	var answers []chan cmdResult
	submit := func() {
		key := fmt.Sprintf("k%d", len(want))
		want = append(want, key)
		ch := make(chan cmdResult, 1)
		answers = append(answers, ch)
		go func() { ch <- tn.exec(&command{job: wal.Job{Name: "a", Key: key}}) }()
	}

	cur := park()
	within("the first drainer to park", cur.entered)
	for round := 0; round < 3; round++ {
		next := park()
		queued(1)
		for i := 0; i < 3; i++ {
			submit()
			queued(2 + i)
		}
		close(cur.release)
		within(fmt.Sprintf("drainer %d to return past the commands queued behind it", round), cur.returned)
		within(fmt.Sprintf("the hand-off to drainer %d", round+1), next.entered)
		queued(0)
		cur = next
	}
	submit()
	queued(1)
	close(cur.release)
	within("the last parked drainer to return", cur.returned)
	for i, ch := range answers {
		if res := <-ch; res.err != nil {
			t.Fatalf("submit %s: %v", want[i], res.err)
		}
	}
	if !slices.Equal(journaled, want) || records != 4 {
		t.Fatalf("journal holds %v in %d records, want %v in 4 (one per batch)", journaled, records, want)
	}
}

// TestCommandPanicEndsProcess: a panic inside a tenant's command ends the
// process. The command's drainer is a request's goroutine, and hop.Server
// recovers a handler's panic; recovered, the tenant would stay draining
// for good, so drain re-raises it where nothing recovers it. The test
// re-executes its own binary to serve one such request through hop.Server
// and reads the child's exit status and stderr.
func TestCommandPanicEndsProcess(t *testing.T) {
	const env = "SERVER_TEST_COMMAND_PANIC"
	if os.Getenv(env) != "" {
		tn, err := NewTenant("panics", 1, "")
		if err != nil {
			t.Fatal(err)
		}
		srv := hoptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
			tn.do(func() (wal.Commit, error) { panic("a command panicked on purpose") })
		}))
		if resp, err := http.Get(srv.URL); err == nil {
			resp.Body.Close()
		}
		os.Exit(0) // reached only if the panic was recovered
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestCommandPanicEndsProcess$")
	cmd.Env = append(os.Environ(), env+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() <= 0 {
		t.Fatalf("child: %v, want a non-zero exit (stderr %q)", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "panic: a command panicked on purpose") {
		t.Fatalf("child's stderr does not carry the panic:\n%s", stderr.String())
	}
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
	if _, _, err := tn.SubmitJobReq(SubmitJobRequest{Task: "a"}); err != nil {
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
	if _, ok := tn.eventAt(want.Dispatches); ok || tn.Info().Dispatches != want.Dispatches {
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
		tn, err := restoreTenant(cp, nil)
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

// closed reports whether ch is closed, without waiting.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestSubscribeClosedByGrowth pins the dispatch log's wake rule: a channel
// Subscribe hands out is closed by the next command that dispatched, and
// by no command that grew nothing — a rejected register, a job submit.
// One taken after a growth stays open until the next.
func TestSubscribeClosedByGrowth(t *testing.T) {
	tn, err := NewTenant("wake", 1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()
	if _, _, err := tn.RegisterTask("a", model.W(1, 2)); err != nil {
		t.Fatal(err)
	}
	ch := tn.Subscribe()
	if d, _, _ := tn.RegisterTask("big", model.W(1, 1)); d.Admitted {
		t.Fatal("a register past m was admitted")
	}
	if _, _, err := tn.SubmitJobReq(SubmitJobRequest{Task: "a"}); err != nil {
		t.Fatal(err)
	}
	if closed(ch) {
		t.Fatal("a rejected register or a job submit closed the channel")
	}
	if _, _, err := tn.Drain(); err != nil {
		t.Fatal(err)
	}
	if !closed(ch) {
		t.Fatal("a drain that dispatched left the channel taken before it open")
	}
	after := tn.Subscribe()
	if _, _, err := tn.SubmitJobReq(SubmitJobRequest{Task: "a"}); err != nil {
		t.Fatal(err)
	}
	if closed(after) {
		t.Fatal("a channel taken after a growth closed without another")
	}
	if _, _, err := tn.Drain(); err != nil {
		t.Fatal(err)
	}
	if !closed(after) {
		t.Fatal("the next growth left the channel taken after the last one open")
	}
}

// TestSubscribeWakeSeesGrowth: whoever wakes on Subscribe's channel already
// reads the growth that woke it — the loop closes it only after the
// snapshot is published.
func TestSubscribeWakeSeesGrowth(t *testing.T) {
	tn, err := NewTenant("wake", 1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()
	if _, _, err := tn.RegisterTask("a", model.W(1, 2)); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 1)
	for i := 0; i < 200; i++ {
		ch := tn.Subscribe()
		before := tn.Info().Dispatches
		go func() {
			if _, _, err := tn.SubmitJobReq(SubmitJobRequest{Task: "a"}); err != nil {
				errs <- err
				return
			}
			if _, _, err := tn.Drain(); err != nil {
				errs <- err
			}
		}()
		select {
		case <-ch:
		case err := <-errs:
			t.Fatal(err)
		}
		if got := tn.Info().Dispatches; got <= before {
			t.Fatalf("round %d: woken with %d dispatches, want > %d", i, got, before)
		}
	}
}

// TestDeleteJournalsAfterQueuedSubmits: a delete issued while submits are
// queued on the tenant journals its OpTenantDelete after every one of them.
// With the loop parked, N single submits queue through the handler, then
// the delete; released, every submit answers 202, the journal holds all N
// jobs before the delete and none after it, and a copy of the data dir as
// it stands reopens to no tenant with no replay error.
func TestDeleteJournalsAfterQueuedSubmits(t *testing.T) {
	const n = 16
	dir := t.TempDir()
	s, err := Open(Options{DataDir: dir, FsyncEvery: 1, FsyncMaxDelay: -1, SnapshotEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	unitTenant(t, h)
	tn := s.tenant("r")

	entered, gate := make(chan struct{}), make(chan struct{})
	go tn.onLoop(func() {
		close(entered)
		<-gate
	})
	<-entered
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		go func() {
			rw := httptest.NewRecorder()
			h.ServeHTTP(rw, httptest.NewRequest("POST", "/v1/tenants/r/jobs", strings.NewReader(`{"task":"w"}`)))
			codes <- rw.Code
		}()
	}
	for tn.Queued() < n {
		runtime.Gosched()
	}
	deleted := make(chan int, 1)
	go func() {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest("DELETE", "/v1/tenants/r", nil))
		deleted <- rw.Code
	}()
	// The delete queues behind the submits; give it a moment to get there.
	// The order asserted below holds wherever it is when the loop resumes.
	for end := time.Now().Add(100 * time.Millisecond); tn.Queued() == n && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	for i := 0; i < n; i++ {
		if code := <-codes; code != http.StatusAccepted {
			t.Fatalf("queued submit answered %d, want 202", code)
		}
	}
	if code := <-deleted; code != http.StatusNoContent {
		t.Fatalf("delete answered %d, want 204", code)
	}

	rd := s.wal.NewReader(1)
	defer rd.Close()
	jobs, del := 0, false
	for {
		frames, err := rd.NextRaw(64)
		if err != nil {
			t.Fatal(err)
		}
		if len(frames) == 0 {
			break
		}
		for _, f := range frames {
			var r wal.Record
			if err := json.Unmarshal(f.Payload, &r); err != nil {
				t.Fatal(err)
			}
			switch {
			case r.Op == wal.OpTenantDelete:
				del = true
			case r.Op == wal.OpJobSubmit && del:
				t.Fatalf("job-submit record at LSN %d follows the delete", f.LSN)
			case r.Op == wal.OpJobSubmit:
				jobs += r.Weight()
			}
		}
	}
	if !del || jobs != n {
		t.Fatalf("journal: delete %v, %d jobs before it, want true and %d", del, jobs, n)
	}

	crashed := t.TempDir()
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashed, filepath.Base(name)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	re, err := Open(Options{DataDir: crashed, SnapshotEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec := re.Recovery(); rec.Tenants != 0 || rec.ReplayErrors != 0 || rec.CommandsReplayed < n+1 {
		t.Fatalf("reopen: %+v, want 0 tenants, 0 replay errors, ≥ %d commands replayed", *rec, n+1)
	}
}

// TestFailedDeleteKeepsTenantServing: a delete whose journal append fails
// answers 503 and leaves the tenant as it was — still listed, its info
// unchanged, and its loop still answering commands (here the wedged
// journal's 503, not the deleted tenant's refusal).
func TestFailedDeleteKeepsTenantServing(t *testing.T) {
	script := func(h http.Handler) {
		unitTenant(t, h)
		serve(t, h, "POST", "/v1/tenants/r/jobs", `{"task":"w"}`, http.StatusAccepted)
	}
	opts := func(ffs *faultfs.FS) Options {
		return Options{DataDir: t.TempDir(), FsyncEvery: 1, FsyncMaxDelay: -1, SnapshotEvery: 1 << 30, FS: ffs}
	}
	// Dry run: count the filesystem operations up to the delete, then crash
	// the filesystem at the next one, the delete's append.
	dry := faultfs.New(faultfs.Options{})
	s, err := Open(opts(dry))
	if err != nil {
		t.Fatal(err)
	}
	script(s.Handler())
	ops := dry.Ops()
	s.Close()

	s, err = Open(opts(faultfs.New(faultfs.Options{CrashAtOp: ops + 1})))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }() // the crashed filesystem fails the final snapshot
	h := s.Handler()
	script(h)
	before := serve(t, h, "GET", "/v1/tenants/r", "", http.StatusOK).Body.String()

	serve(t, h, "DELETE", "/v1/tenants/r", "", http.StatusServiceUnavailable)
	if got := serve(t, h, "GET", "/v1/tenants", "", http.StatusOK).Body.String(); !strings.Contains(got, `"id":"r"`) {
		t.Fatalf("tenant list after a failed delete: %s", got)
	}
	if got := serve(t, h, "GET", "/v1/tenants/r", "", http.StatusOK).Body.String(); got != before {
		t.Fatalf("info after a failed delete: %s, want %s", got, before)
	}
	serve(t, h, "POST", "/v1/tenants/r/jobs", `{"task":"w"}`, http.StatusServiceUnavailable)
	if _, _, err := s.tenant("r").SubmitJobReq(SubmitJobRequest{Task: "w"}); !errors.Is(err, wal.ErrWedged) || errors.Is(err, errTenantGone) {
		t.Fatalf("submit after a failed delete: err = %v, want the wedged journal's", err)
	}
}

// TestTenantSnapFitsItsSizeClass: publish allocates one tenantSnap after
// every command, and it copies the dispatchLog struct whole, so a field
// added to either is paid for by every command. Both stay within the
// 320 B size class.
func TestTenantSnapFitsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(tenantSnap{}); n > 320 {
		t.Fatalf("a tenantSnap is %d B (its dispatchLog %d B), past the 320 B size class", n, unsafe.Sizeof(dispatchLog{}))
	}
}

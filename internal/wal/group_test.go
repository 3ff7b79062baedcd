package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// fakeTimer is a manually-fired Timer: tests trigger the FsyncMaxDelay
// callback themselves, so the idle-flush path needs no sleeps and no real
// clock.
type fakeTimer struct {
	mu      sync.Mutex
	d       time.Duration
	fn      func()
	stopped bool
}

func (ft *fakeTimer) Stop() bool {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	st := ft.stopped
	ft.stopped = true
	return !st
}

func (ft *fakeTimer) fire() {
	ft.mu.Lock()
	fn, stopped := ft.fn, ft.stopped
	ft.stopped = true
	ft.mu.Unlock()
	if !stopped {
		fn()
	}
}

// timerFactory collects every timer the log arms.
type timerFactory struct {
	mu     sync.Mutex
	timers []*fakeTimer
}

func (tf *timerFactory) afterFunc(d time.Duration, f func()) Timer {
	tf.mu.Lock()
	defer tf.mu.Unlock()
	ft := &fakeTimer{d: d, fn: f}
	tf.timers = append(tf.timers, ft)
	return ft
}

func (tf *timerFactory) all() []*fakeTimer {
	tf.mu.Lock()
	defer tf.mu.Unlock()
	return append([]*fakeTimer(nil), tf.timers...)
}

// TestFsyncMaxDelayFlushesIdleTail pins the idle-flush fix: with
// FsyncEvery > 1, a final partial group used to sit unsynced forever once
// traffic stopped. The FsyncMaxDelay timer — armed by the first record of
// each unsynced batch — must bring the idle log to Stats().Unsynced == 0.
// The injected timer makes the test fully deterministic: no sleeps.
func TestFsyncMaxDelayFlushesIdleTail(t *testing.T) {
	tf := &timerFactory{}
	fs := &countingFS{}
	l, _ := mustOpen(t, t.TempDir(), Options{
		FS:            fs,
		FsyncEvery:    8,
		FsyncMaxDelay: 50 * time.Millisecond,
		AfterFunc:     tf.afterFunc,
	})
	defer l.Close()

	appendN(t, l, 3) // below the threshold: no fsync yet
	if st := l.Stats(); st.Unsynced != 3 || st.Fsyncs != 0 {
		t.Fatalf("before timer: Unsynced=%d Fsyncs=%d, want 3/0", st.Unsynced, st.Fsyncs)
	}
	timers := tf.all()
	if len(timers) != 1 {
		t.Fatalf("armed %d timers for one partial batch, want 1", len(timers))
	}
	if timers[0].d != 50*time.Millisecond {
		t.Fatalf("timer delay = %v, want FsyncMaxDelay", timers[0].d)
	}

	timers[0].fire()
	if st := l.Stats(); st.Unsynced != 0 || st.Fsyncs != 1 {
		t.Fatalf("after timer: Unsynced=%d Fsyncs=%d, want 0/1", st.Unsynced, st.Fsyncs)
	}

	// The next partial batch arms a fresh timer; firing it flushes again.
	appendN(t, l, 2)
	timers = tf.all()
	if len(timers) != 2 {
		t.Fatalf("second batch armed %d timers total, want 2", len(timers))
	}
	timers[1].fire()
	if st := l.Stats(); st.Unsynced != 0 || st.Fsyncs != 2 {
		t.Fatalf("after second timer: Unsynced=%d Fsyncs=%d, want 0/2", st.Unsynced, st.Fsyncs)
	}

	// A timer that fires with nothing pending (threshold sync already
	// covered the batch) is a no-op, not an extra fsync.
	appendN(t, l, 8) // hits FsyncEvery == 8 exactly: threshold sync
	st := l.Stats()
	if st.Unsynced != 0 || st.Fsyncs != 3 {
		t.Fatalf("after threshold batch: Unsynced=%d Fsyncs=%d, want 0/3", st.Unsynced, st.Fsyncs)
	}
	for _, ft := range tf.all() {
		ft.fire()
	}
	if got := l.Stats().Fsyncs; got != 3 {
		t.Fatalf("stale timer fire issued an fsync: Fsyncs=%d, want 3", got)
	}
}

// gateFS blocks the first `gated` Sync calls until released, so a test
// can deterministically pile followers behind a leader's in-flight fsync.
type gateFS struct {
	OSFS
	mu      sync.Mutex
	started chan struct{} // one send per gated Sync entering
	release chan struct{} // one receive unblocks one gated Sync
	gated   int
	syncs   int
}

func (g *gateFS) Create(path string) (File, error) {
	f, err := g.OSFS.Create(path)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, fs: g}, nil
}

type gateFile struct {
	File
	fs *gateFS
}

func (f *gateFile) Sync() error {
	g := f.fs
	g.mu.Lock()
	g.syncs++
	gate := g.gated > 0
	if gate {
		g.gated--
	}
	g.mu.Unlock()
	if gate {
		g.started <- struct{}{}
		<-g.release
	}
	return f.File.Sync()
}

// TestLeaderFollowerCoalescing is the deterministic proof of group
// commit: while the leader's fsync is blocked, K more appends enqueue and
// wait behind it; releasing the gate lets one follower lead a single
// second fsync that acks all K. K+1 durable appends, exactly 2 fsyncs.
func TestLeaderFollowerCoalescing(t *testing.T) {
	const followers = 8
	g := &gateFS{
		started: make(chan struct{}, followers+2),
		release: make(chan struct{}),
		gated:   2,
	}
	l, _ := mustOpen(t, t.TempDir(), Options{FS: g, FsyncEvery: 1})
	defer l.Close()

	done := make(chan error, followers+1)
	go func() {
		_, err := l.Append(Record{Op: OpAdvance, Tenant: "a", At: "0"})
		done <- err
	}()
	<-g.started // the leader is inside its fsync, mutex released

	// Enqueue the followers. Each lands its write (Appends counts at
	// enqueue) and blocks in Wait behind the in-flight leader.
	for i := 0; i < followers; i++ {
		go func(i int) {
			_, err := l.Append(Record{Op: OpAdvance, Tenant: "a", At: fmt.Sprint(i + 1)})
			done <- err
		}(i)
	}
	waitFor(t, func() bool { return l.Stats().Appends == followers+1 })

	g.release <- struct{}{} // leader completes: record 1 durable
	<-g.started             // one follower took over as the next leader
	waitFor(t, func() bool { return l.Stats().Fsyncs == 1 })
	g.release <- struct{}{} // second sync covers all followers at once

	for i := 0; i < followers+1; i++ {
		if err := <-done; err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	st := l.Stats()
	if st.Fsyncs != 2 {
		t.Fatalf("%d appends completed with %d fsyncs, want exactly 2 (1 leader + 1 coalesced group)", followers+1, st.Fsyncs)
	}
	if st.Unsynced != 0 {
		t.Fatalf("Unsynced = %d after all acks, want 0", st.Unsynced)
	}
	g.mu.Lock()
	syncs := g.syncs
	g.mu.Unlock()
	if syncs != 2 {
		t.Fatalf("file saw %d Sync calls, want 2", syncs)
	}
}

// TestThresholdSyncHasNoStraggler pins what a group-committed ack costs: with
// FsyncEvery = N, crossing the threshold K times is K fsyncs. Each round one
// appender crosses it and sits in the (gated) fsync while a second one lands a
// record behind its back and follows that sync. The sync leaves one record
// unsynced — under the threshold — so the follower acks without a sync of its
// own; it used to insist on everything written and run a whole fsync for its
// one record. No ack returns with N or more records unsynced.
func TestThresholdSyncHasNoStraggler(t *testing.T) {
	const n, rounds = 4, 6
	g := &gateFS{started: make(chan struct{}, 1), release: make(chan struct{})}
	l, _ := mustOpen(t, t.TempDir(), Options{FS: g, FsyncEvery: n})
	defer l.Close()
	rec := Record{Op: OpAdvance, Tenant: "a", At: "0"}
	ackedUnder := func(who string) {
		t.Helper()
		if u := l.Stats().Unsynced; u >= n {
			t.Fatalf("%s acked with %d records unsynced, FsyncEvery is %d", who, u, n)
		}
	}

	for round := 0; round < rounds; round++ {
		for l.Stats().Unsynced < n-1 { // acks under the threshold: no fsync
			if _, err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
			ackedUnder("an append under the threshold")
		}
		g.mu.Lock()
		g.gated = 1 // the crossing fsync; one more would go through, and be counted
		g.mu.Unlock()
		crossed := make(chan error, 1)
		go func() { _, err := l.Append(rec); crossed <- err }()
		<-g.started // the crossing appender leads the fsync, mutex released

		landed := make(chan struct{})
		straggler := make(chan error, 1)
		go func() {
			c, err := l.AppendAsync(rec)
			close(landed)
			if err == nil {
				err = l.Wait(c)
			}
			straggler <- err
		}()
		<-landed
		g.release <- struct{}{}
		if err := <-crossed; err != nil {
			t.Fatal(err)
		}
		if err := <-straggler; err != nil {
			t.Fatal(err)
		}
		ackedUnder("the round's two appenders")
		if got := l.Stats().Fsyncs; got != uint64(round+1) {
			t.Fatalf("after %d threshold crossings: %d fsyncs", round+1, got)
		}
	}
	g.mu.Lock()
	syncs := g.syncs
	g.mu.Unlock()
	if syncs != rounds {
		t.Fatalf("file saw %d Sync calls for %d threshold crossings", syncs, rounds)
	}
}

// TestThresholdSyncStopsIdleTimer: the idle-flush timer belongs to the batch
// whose first record armed it. A threshold sync that leaves nothing unsynced
// stops it, so under steady appends no timer is left to fire on whatever
// young batch exists when its delay runs out — and the next batch's first
// record arms its own, which flushes that batch within FsyncMaxDelay of it.
func TestThresholdSyncStopsIdleTimer(t *testing.T) {
	const n, batches = 4, 5
	tf := &timerFactory{}
	l, _ := mustOpen(t, t.TempDir(), Options{FsyncEvery: n, FsyncMaxDelay: 50 * time.Millisecond, AfterFunc: tf.afterFunc})
	defer l.Close()

	appendN(t, l, n*batches)
	if st := l.Stats(); st.Fsyncs != batches || st.Unsynced != 0 {
		t.Fatalf("after %d full batches: %+v", batches, st)
	}
	appendN(t, l, 1) // a young partial batch
	timers := tf.all()
	if len(timers) != batches+1 {
		t.Fatalf("%d timers armed, want one per batch (%d)", len(timers), batches+1)
	}
	young := timers[batches]
	for _, ft := range timers[:batches] { // every earlier batch's delay runs out
		ft.fire()
	}
	if st := l.Stats(); st.Fsyncs != batches || st.Unsynced != 1 {
		t.Fatalf("timers of batches already synced flushed the young one: %+v", st)
	}
	if young.d != 50*time.Millisecond {
		t.Fatalf("the partial batch's timer was armed with %v, want FsyncMaxDelay", young.d)
	}
	young.fire()
	if st := l.Stats(); st.Fsyncs != batches+1 || st.Unsynced != 0 {
		t.Fatalf("the partial batch's own timer did not flush it: %+v", st)
	}
}

// lateTimer is a timer whose callback had already started when it was
// stopped: Stop reports false, and the test runs the callback afterwards.
type lateTimer struct{ fn func() }

func (lt *lateTimer) Stop() bool { return false }

// TestStoppedTimerCallbackLeavesSuccessorArmed: Stop() == false means the
// timer's callback is already running, waiting for the log's mutex. When it
// gets there it must find itself superseded: no fsync, and the timer the
// next batch armed in the meantime stays that batch's one timer.
func TestStoppedTimerCallbackLeavesSuccessorArmed(t *testing.T) {
	const n = 4
	var timers []*lateTimer
	l, _ := mustOpen(t, t.TempDir(), Options{FsyncEvery: n, FsyncMaxDelay: 50 * time.Millisecond,
		AfterFunc: func(_ time.Duration, f func()) Timer {
			lt := &lateTimer{fn: f}
			timers = append(timers, lt)
			return lt
		}})
	defer l.Close()

	appendN(t, l, n) // arms timer 0; the threshold sync stops it too late
	appendN(t, l, 1) // the next batch arms timer 1
	timers[0].fn()   // the late callback finally gets the mutex
	appendN(t, l, 1) // had it un-armed timer 1, this would arm a third
	if st := l.Stats(); st.Fsyncs != 1 || st.Unsynced != 2 || len(timers) != 2 {
		t.Fatalf("after a late callback: %+v, %d timers armed; want 1 fsync, 2 unsynced, 2 timers", st, len(timers))
	}
	timers[1].fn()
	if st := l.Stats(); st.Fsyncs != 2 || st.Unsynced != 0 {
		t.Fatalf("the batch's own timer: %+v, want it flushed", st)
	}
}

// waitFor polls cond until it holds; the conditions used here are
// guaranteed to become true once the goroutines already launched make
// progress, so this converges without any timing assumptions beyond the
// test binary's own deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestConcurrentAppendRace is the -race workout for the append pipeline:
// N goroutines append concurrently with durable acks (FsyncEvery == 1)
// and the log must hand out unique, gap-free, per-goroutine-monotone
// LSNs with consistent counters.
func TestConcurrentAppendRace(t *testing.T) {
	const (
		goroutines = 8
		perG       = 50
	)
	l, _ := mustOpen(t, t.TempDir(), Options{FsyncEvery: 1})

	lsns := make([][]uint64, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				lsn, err := l.Append(Record{Op: OpAdvance, Tenant: fmt.Sprintf("g%d", g), At: fmt.Sprint(i)})
				if err != nil {
					errs[g] = err
					return
				}
				lsns[g] = append(lsns[g], lsn)
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}

	var all []uint64
	for g := range lsns {
		for i := 1; i < len(lsns[g]); i++ {
			if lsns[g][i] <= lsns[g][i-1] {
				t.Fatalf("goroutine %d saw non-monotone LSNs %d then %d", g, lsns[g][i-1], lsns[g][i])
			}
		}
		all = append(all, lsns[g]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, lsn := range all {
		if lsn != uint64(i+1) {
			t.Fatalf("LSN sequence has a gap or duplicate at position %d: got %d, want %d", i, lsn, i+1)
		}
	}

	st := l.Stats()
	if st.Appends != goroutines*perG {
		t.Fatalf("Appends = %d, want %d", st.Appends, goroutines*perG)
	}
	if st.AppendErrors != 0 || st.Wedged {
		t.Fatalf("Stats = %+v, want no errors", st)
	}
	if st.Unsynced != 0 {
		t.Fatalf("Unsynced = %d after all durable acks, want 0", st.Unsynced)
	}
	if st.Fsyncs == 0 || st.Fsyncs > st.Appends {
		t.Fatalf("Fsyncs = %d, want in [1, %d]", st.Fsyncs, st.Appends)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Every acked record survives a reopen, in LSN order.
	l2, rec := mustOpen(t, l.dir, Options{})
	defer l2.Close()
	if len(rec.Records) != goroutines*perG {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), goroutines*perG)
	}
	for i, r := range rec.Records {
		if r.LSN != uint64(i+1) {
			t.Fatalf("recovered record %d has LSN %d", i, r.LSN)
		}
	}
}

// failSyncFS fails the k-th file Sync (1-based) and succeeds otherwise.
type failSyncFS struct {
	OSFS
	mu     sync.Mutex
	syncs  int
	failAt int
}

func (c *failSyncFS) Create(path string) (File, error) {
	f, err := c.OSFS.Create(path)
	if err != nil {
		return nil, err
	}
	return &failSyncFile{File: f, fs: c}, nil
}

type failSyncFile struct {
	File
	fs *failSyncFS
}

func (f *failSyncFile) Sync() error {
	f.fs.mu.Lock()
	f.fs.syncs++
	fail := f.fs.syncs == f.fs.failAt
	f.fs.mu.Unlock()
	if fail {
		return errors.New("injected fsync failure")
	}
	return f.File.Sync()
}

// TestLeaderFsyncFailureWedgesOnce: when the group-commit leader's fsync
// fails, every waiter sharing that sync gets an ErrWedged-wrapped error,
// the wedge is sticky, and the log wedges exactly once — later appends
// are refused without re-reporting the I/O failure.
func TestLeaderFsyncFailureWedgesOnce(t *testing.T) {
	const writers = 4
	fs := &failSyncFS{failAt: 1}
	l, _ := mustOpen(t, t.TempDir(), Options{FS: fs, FsyncEvery: 1})
	defer l.Close()

	errsCh := make(chan error, writers)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, err := l.Append(Record{Op: OpAdvance, Tenant: fmt.Sprintf("g%d", g), At: "0"})
			errsCh <- err
		}(g)
	}
	wg.Wait()
	close(errsCh)
	for err := range errsCh {
		if !errors.Is(err, ErrWedged) {
			t.Fatalf("append error = %v, want ErrWedged", err)
		}
	}
	if !l.Wedged() {
		t.Fatal("log not wedged after leader fsync failure")
	}
	if _, err := l.Append(Record{Op: OpDrain}); !errors.Is(err, ErrWedged) {
		t.Fatalf("post-wedge append = %v, want ErrWedged", err)
	}
	st := l.Stats()
	// Each of the writers' Waits failed (one per call) plus the refused
	// post-wedge append.
	if st.AppendErrors != writers+1 {
		t.Fatalf("AppendErrors = %d, want %d", st.AppendErrors, writers+1)
	}
	if st.Fsyncs != 0 {
		t.Fatalf("Fsyncs = %d after a failed leader sync, want 0", st.Fsyncs)
	}
}

// TestAppendBatchSingleWrite: a batch lands as one contiguous frame group
// — one write, contiguous LSNs written back into the records — and one
// Wait on its commit yields one fsync for the whole group.
func TestAppendBatchSingleWrite(t *testing.T) {
	fs := &countingFS{}
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{FS: fs, FsyncEvery: 1})

	rs := make([]Record, 5)
	for i := range rs {
		rs[i] = Record{Op: OpJobSubmit, Tenant: "a", Name: fmt.Sprintf("t%d", i), At: "0"}
	}
	c, err := l.AppendBatch(rs)
	if err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	for i, r := range rs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("batch record %d assigned LSN %d, want %d", i, r.LSN, i+1)
		}
	}
	if c.LSN != 5 {
		t.Fatalf("batch commit LSN = %d, want 5", c.LSN)
	}
	if st := l.Stats(); st.Appends != 5 || st.Unsynced != 5 || st.Fsyncs != 0 {
		t.Fatalf("after enqueue: %+v, want 5 appends, 5 unsynced, 0 fsyncs", st)
	}
	if err := l.Wait(c); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st := l.Stats(); st.Fsyncs != 1 || st.Unsynced != 0 {
		t.Fatalf("after Wait: %+v, want exactly 1 fsync covering the group", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := mustOpen(t, dir, Options{})
	defer l2.Close()
	if len(rec.Records) != 5 {
		t.Fatalf("recovered %d records, want 5", len(rec.Records))
	}
	for i, r := range rec.Records {
		want := rs[i]
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("recovered record %d = %+v, want %+v", i, r, want)
		}
	}

	// The zero commit (no journal) waits for nothing.
	if err := l2.Wait(Commit{}); err != nil {
		t.Fatalf("Wait(zero) = %v", err)
	}
	// An empty batch is a no-op.
	if c, err := l2.AppendBatch(nil); err != nil || c.LSN != 0 {
		t.Fatalf("AppendBatch(nil) = (%+v, %v), want zero commit", c, err)
	}
}

// TestGroupRecordIsOneFrameWeighedByItsJobs: a job-submit group is one
// frame — one append, one LSN, one unit toward FsyncEvery — and counts as
// its jobs toward SnapshotEvery, live and again after a reopen, so a journal
// of groups compacts where the same jobs as flat records would. A record
// too large for a frame is refused, typed, with nothing written and the log
// not wedged; and a frame cut anywhere short of its end recovers as nothing.
func TestGroupRecordIsOneFrameWeighedByItsJobs(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{FsyncEvery: 4, SnapshotEvery: 8})
	group := Record{Op: OpJobSubmit, Tenant: "a"}
	for i := 0; i < 6; i++ {
		group.Jobs = append(group.Jobs, Job{Name: fmt.Sprintf("t%d", i), At: "3/2", Earliness: int64(i), Key: fmt.Sprintf("k%d", i)})
	}
	c, err := l.AppendAsync(group)
	if err != nil || c.LSN != 1 {
		t.Fatalf("AppendAsync(group) = %+v, %v", c, err)
	}
	if st := l.Stats(); st.Appends != 1 || st.Unsynced != 1 || l.ShouldCompact() {
		t.Fatalf("after a 6-job group: %+v, compact=%v; want 1 frame, 6 of 8 toward a snapshot", st, l.ShouldCompact())
	}
	if _, err := l.AppendAsync(Record{Op: OpAdvance, Tenant: "a", At: "2"}); err != nil {
		t.Fatal(err)
	}
	if l.ShouldCompact() {
		t.Fatal("6 jobs and 1 command reached SnapshotEvery 8")
	}
	if _, err := l.AppendAsync(Record{Op: OpDispatch, Tenant: "a", Count: 6, CRC: 1}); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); !l.ShouldCompact() || st.Appends != 3 || st.Unsynced != 3 || st.Fsyncs != 0 {
		t.Fatalf("6 jobs, 1 command, 1 digest: compact=%v, %+v; want a snapshot due after 3 frames, none synced", l.ShouldCompact(), st)
	}

	big := Record{Op: OpJobSubmit, Tenant: "a", Jobs: make([]Job, 1024)}
	for i := range big.Jobs {
		big.Jobs[i].Name = fmt.Sprintf("%01100d", i)
	}
	if _, err := l.AppendAsync(big); !errors.Is(err, ErrRecordTooLarge) || errors.Is(err, ErrWedged) {
		t.Fatalf("AppendAsync(1.1 MiB record) = %v, want ErrRecordTooLarge", err)
	}
	if st := l.Stats(); st.Appends != 3 || st.Wedged {
		t.Fatalf("after the refusal: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := mustOpen(t, dir, Options{SnapshotEvery: 8})
	if len(rec.Records) != 3 || !reflect.DeepEqual(rec.Records[0].Jobs, group.Jobs) || !l2.ShouldCompact() {
		t.Fatalf("reopen: %d records, jobs %+v, compact=%v", len(rec.Records), rec.Records[0].Jobs, l2.ShouldCompact())
	}
	l2.Close()

	seg := filepath.Join(dir, "wal-0000000000000001.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	frame := frameHeader + int(binary.LittleEndian.Uint32(data))
	for cut := 0; cut < frame; cut++ {
		torn := t.TempDir()
		if err := os.WriteFile(filepath.Join(torn, filepath.Base(seg)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l3, rec := mustOpen(t, torn, Options{})
		l3.Close()
		if len(rec.Records) != 0 {
			t.Fatalf("a group frame cut at byte %d of %d recovered %+v", cut, frame, rec.Records)
		}
	}
}

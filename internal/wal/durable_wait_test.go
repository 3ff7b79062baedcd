package wal

import (
	"errors"
	"sync"
	"testing"
)

// isClosed reports whether c has been closed, without waiting for it.
func isClosed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// TestNextDurableWakesPerFsync pins the notification's unit: an append that
// only writes wakes nobody, the fsync that covers it wakes everybody holding
// the channel, and the channel handed out after that is a new one. With the
// idle flush disabled and a large FsyncEvery nothing but Sync makes a record
// durable here.
func TestNextDurableWakesPerFsync(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{FsyncEvery: 1 << 20})
	defer l.Close()

	first, again := l.NextDurable(), l.NextDurable()
	if first != again {
		t.Fatal("two waiters before an advance hold different channels")
	}
	for i := 0; i < 3; i++ {
		if _, err := l.AppendAsync(Record{Op: OpAdvance, Tenant: "a", At: "0"}); err != nil {
			t.Fatal(err)
		}
	}
	if isClosed(first) {
		t.Fatal("a write woke the durable waiters: nothing is durable yet")
	}
	if got := l.DurableLSN(); got != 0 {
		t.Fatalf("DurableLSN = %d before any fsync", got)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if !isClosed(first) || l.DurableLSN() != 3 {
		t.Fatalf("after Sync: channel closed %v, DurableLSN %d; want closed, 3", isClosed(first), l.DurableLSN())
	}
	if next := l.NextDurable(); next == first || isClosed(next) {
		t.Fatal("the channel taken after an advance is not a fresh one")
	}
	// A Sync with nothing to cover is no advance.
	idle := l.NextDurable()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if isClosed(idle) {
		t.Fatal("a Sync that made nothing durable woke the waiters")
	}
}

// TestNextDurableClosedByWedgeCloseAndSnapshot: the other three things that
// end a wait for the next durable record. A wedged log will not advance
// again, so the channel taken after the wedge stays open until Close; a
// closed log hands out a channel that is closed already, so nothing can wait
// on it for good.
func TestNextDurableClosedByWedgeCloseAndSnapshot(t *testing.T) {
	t.Run("wedge", func(t *testing.T) {
		l, _ := mustOpen(t, t.TempDir(), Options{FS: &failSyncFS{failAt: 1}, FsyncEvery: 1 << 20})
		defer l.Close()
		if _, err := l.AppendAsync(Record{Op: OpDrain, Tenant: "a"}); err != nil {
			t.Fatal(err)
		}
		held := l.NextDurable()
		if err := l.Sync(); !errors.Is(err, ErrWedged) {
			t.Fatalf("Sync on a failing file = %v, want ErrWedged", err)
		}
		if !isClosed(held) {
			t.Fatal("the wedge did not wake the durable waiters")
		}
		after := l.NextDurable()
		if isClosed(after) {
			t.Fatal("a wedged log hands out a closed channel: its waiter would spin")
		}
		l.Close()
		if !isClosed(after) {
			t.Fatal("Close did not wake the waiter of a wedged log")
		}
	})
	t.Run("close", func(t *testing.T) {
		l, _ := mustOpen(t, t.TempDir(), Options{})
		held := l.NextDurable()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if !isClosed(held) || !isClosed(l.NextDurable()) {
			t.Fatal("Close left a durable waiter asleep, or a closed log hands out an open channel")
		}
	})
	t.Run("install-snapshot", func(t *testing.T) {
		l, _ := mustOpen(t, t.TempDir(), Options{})
		defer l.Close()
		held := l.NextDurable()
		if err := l.InstallSnapshot([]byte(`{}`), 7, 0); err != nil {
			t.Fatal(err)
		}
		if !isClosed(held) || l.DurableLSN() != 7 {
			t.Fatalf("InstallSnapshot: channel closed %v, DurableLSN %d; want closed, 7", isClosed(held), l.DurableLSN())
		}
	})
}

// TestNextDurableNoLostWakeup races the tailing rule against the appender:
// channel first, then the read, then — only after an empty read — the wait.
// Each round appends one record and syncs it while the reader is somewhere in
// that sequence; nothing else can make the record durable or wake the reader,
// so a wake-up lost between the empty read and the wait would leave the round
// waiting for good.
func TestNextDurableNoLostWakeup(t *testing.T) {
	const rounds = 1000
	l, _ := mustOpen(t, t.TempDir(), Options{FsyncEvery: 1 << 20})
	defer l.Close()
	r := l.NewReader(1)
	defer r.Close()

	seen := make(chan uint64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(seen)
		for n := 0; n < rounds; {
			durable := l.NextDurable()
			recs, err := nextRecords(r, 16)
			if err != nil {
				t.Errorf("NextRaw: %v", err)
				return
			}
			for _, rec := range recs {
				seen <- rec.LSN
				n++
			}
			if len(recs) == 0 {
				<-durable
			}
		}
	}()
	for i := 1; i <= rounds; i++ {
		if _, err := l.AppendAsync(Record{Op: OpAdvance, Tenant: "a", At: "0"}); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if lsn, ok := <-seen; !ok || lsn != uint64(i) {
			t.Fatalf("round %d: reader delivered LSN %d (open %v)", i, lsn, ok)
		}
	}
	wg.Wait()
}

package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"
	"time"
)

// nextRecords reads up to max frames off r and decodes their payloads, as a
// follower does with the log stream it is served.
func nextRecords(r *Reader, max int) ([]Record, error) {
	frames, err := r.NextRaw(max)
	recs := make([]Record, len(frames))
	for i, f := range frames {
		if err := UnmarshalRecord(f.Payload, &recs[i]); err != nil {
			return recs[:i], err
		}
	}
	return recs, err
}

// collect drains r until `want` records arrived or the deadline passes,
// asserting the stream is LSN-contiguous and never runs past the durable
// horizon. A read that finds nothing waits for the log's next fsync, on the
// channel taken before that read.
func collect(t *testing.T, l *Log, r *Reader, want int, deadline time.Duration) []Record {
	t.Helper()
	var got []Record
	next := uint64(1)
	stop := time.NewTimer(deadline)
	defer stop.Stop()
	for len(got) < want {
		synced := l.NextDurable()
		recs, err := nextRecords(r, 16)
		if err != nil {
			t.Fatalf("NextRaw: %v", err)
		}
		durable, _ := l.horizon()
		for _, rec := range recs {
			if rec.LSN != next {
				t.Fatalf("stream not contiguous: got LSN %d, want %d", rec.LSN, next)
			}
			// durable was sampled *after* NextRaw returned and only ever
			// grows, so any record beyond it was served from an unsynced
			// suffix — the one thing a replication reader must never do.
			if rec.LSN > durable {
				t.Fatalf("reader served LSN %d beyond durable horizon %d", rec.LSN, durable)
			}
			next++
		}
		got = append(got, recs...)
		if len(recs) == 0 {
			select {
			case <-synced:
			case <-stop.C:
				return got
			}
		}
	}
	return got
}

// TestReaderTailsConcurrentGroupCommit pins the log-serving substrate of
// replication: while concurrent writers drive group-committed appends, a
// tailing reader must see every record exactly once, in LSN order, and
// never observe a torn frame group or an unsynced suffix.
func TestReaderTailsConcurrentGroupCommit(t *testing.T) {
	const writers, perWriter = 4, 50
	l, _ := mustOpen(t, t.TempDir(), Options{FsyncEvery: 8, FsyncMaxDelay: 5 * time.Millisecond})
	defer l.Close()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := l.Append(Record{Op: OpAdvance, Tenant: fmt.Sprintf("t%d", w), At: fmt.Sprint(i)}); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(w)
	}

	r := l.NewReader(1)
	defer r.Close()
	got := collect(t, l, r, writers*perWriter, 10*time.Second)
	wg.Wait()
	if len(got) != writers*perWriter {
		t.Fatalf("reader delivered %d records, want %d", len(got), writers*perWriter)
	}
}

// TestReaderStopsAtDurableHorizon pins the cap deterministically: written
// but unsynced records are invisible, and become visible the instant
// their group commits.
func TestReaderStopsAtDurableHorizon(t *testing.T) {
	tf := &timerFactory{} // timers never fire: no idle flush
	l, _ := mustOpen(t, t.TempDir(), Options{FsyncEvery: 8, FsyncMaxDelay: 50 * time.Millisecond, AfterFunc: tf.afterFunc})
	defer l.Close()

	for i := 0; i < 3; i++ {
		if _, err := l.AppendAsync(Record{Op: OpAdvance, Tenant: "a", At: fmt.Sprint(i)}); err != nil {
			t.Fatalf("AppendAsync: %v", err)
		}
	}

	r := l.NewReader(1)
	defer r.Close()
	if recs, err := nextRecords(r, 16); err != nil || len(recs) != 0 {
		t.Fatalf("reader saw %d unsynced records (err %v), want 0", len(recs), err)
	}
	for _, ft := range tf.all() { // idle-flush fires: the partial group commits
		ft.fire()
	}
	recs, err := nextRecords(r, 16)
	if err != nil || len(recs) != 3 {
		t.Fatalf("reader saw %d records after commit (err %v), want 3", len(recs), err)
	}
}

// TestTermPersistsAcrossReopen pins term recovery: a promotion's term
// bump plus durable OpTerm marker must survive a restart, or a rebooted
// ex-follower could accept a deposed leader's appends.
func TestTermPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	appendN(t, l, 2)
	if err := l.SetTerm(3); err != nil {
		t.Fatalf("SetTerm: %v", err)
	}
	if err := l.SetTerm(2); err == nil {
		t.Fatal("SetTerm lowered the term")
	}
	if _, err := l.Append(Record{Op: OpTerm}); err != nil {
		t.Fatalf("Append(OpTerm): %v", err)
	}
	l.Close()

	l2, rec := mustOpen(t, dir, Options{})
	defer l2.Close()
	if l2.Term() != 3 || rec.Term != 3 {
		t.Fatalf("recovered term = %d (Recovery.Term %d), want 3", l2.Term(), rec.Term)
	}
}

// TestAppendReplicatedFencing pins the follower-side append contract:
// records must exactly continue the local log, stale-term records are
// fenced, and newer terms advance the local term.
func TestAppendReplicatedFencing(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{})
	defer l.Close()

	if _, err := l.AppendReplicated(Record{LSN: 1, Term: 1, Op: OpTenantCreate, Tenant: "a", M: 1}); err != nil {
		t.Fatalf("contiguous AppendReplicated: %v", err)
	}
	if l.Term() != 1 {
		t.Fatalf("term = %d after replicating term-1 record, want 1", l.Term())
	}
	if _, err := l.AppendReplicated(Record{LSN: 5, Term: 1, Op: OpAdvance, Tenant: "a"}); err == nil {
		t.Fatal("LSN gap accepted")
	}
	if err := l.SetTerm(4); err != nil {
		t.Fatalf("SetTerm: %v", err)
	}
	if _, err := l.AppendReplicated(Record{LSN: 2, Term: 1, Op: OpAdvance, Tenant: "a"}); !errors.Is(err, ErrStaleTerm) {
		t.Fatalf("stale-term append = %v, want ErrStaleTerm", err)
	}
	if _, err := l.AppendReplicated(Record{LSN: 2, Term: 7, Op: OpAdvance, Tenant: "a"}); err != nil {
		t.Fatalf("newer-term append: %v", err)
	}
	if l.Term() != 7 {
		t.Fatalf("term = %d after replicating term-7 record, want 7", l.Term())
	}
}

// TestNextRawIsMarshaledRecord pins the encode-once shipping contract: the
// raw frames NextRaw serves must be, byte for byte, the json.Marshal of the
// records they decode to — LSNs in order, and a CRC that is crc32(payload)
// — because the replication handler forwards them to followers without
// re-encoding and the follower re-verifies both.
func TestNextRawIsMarshaledRecord(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{FsyncEvery: 1})
	defer l.Close()
	appendN(t, l, 40)

	rr := l.NewReader(1)
	defer rr.Close()
	var raws []RawFrame
	stop := time.NewTimer(2 * time.Second)
	defer stop.Stop()
	for len(raws) < 40 {
		durable := l.NextDurable()
		fs, err := rr.NextRaw(16)
		if err != nil {
			t.Fatalf("NextRaw: %v", err)
		}
		raws = append(raws, fs...)
		if len(fs) == 0 {
			select {
			case <-durable:
			case <-stop.C:
				t.Fatalf("NextRaw served %d frames in 2 s, want 40", len(raws))
			}
		}
	}
	if len(raws) != 40 {
		t.Fatalf("NextRaw served %d frames, want 40", len(raws))
	}
	for i, raw := range raws {
		var rec Record
		if err := UnmarshalRecord(raw.Payload, &rec); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if raw.LSN != uint64(i+1) || rec.LSN != raw.LSN {
			t.Fatalf("frame %d: LSN %d holding record %d, want %d", i, raw.LSN, rec.LSN, i+1)
		}
		if !bytes.Equal(raw.Payload, want) {
			t.Fatalf("frame %d payload:\n got %s\nwant %s", i, raw.Payload, want)
		}
		if got := crc32.ChecksumIEEE(raw.Payload); got != raw.CRC {
			t.Fatalf("frame %d: CRC %08x, want crc32(payload) %08x", i, raw.CRC, got)
		}
	}
}

// TestNextRawCompacted: a cursor below the snapshot horizon must fail with
// ErrCompacted, which the replication handler answers with 410.
func TestNextRawCompacted(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{FsyncEvery: 1})
	defer l.Close()
	appendN(t, l, 10)
	if err := l.Compact([]byte(`{"snap":true}`)); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3)

	rd := l.NewReader(1)
	defer rd.Close()
	if _, err := rd.NextRaw(16); !errors.Is(err, ErrCompacted) {
		t.Fatalf("NextRaw below horizon: err %v, want ErrCompacted", err)
	}
	// From the horizon forward the raw stream resumes normally.
	rr := l.NewReader(l.SnapshotLSN() + 1)
	defer rr.Close()
	fs, err := rr.NextRaw(16)
	if err != nil {
		t.Fatalf("NextRaw at horizon: %v", err)
	}
	if len(fs) == 0 {
		t.Fatal("no frames past the snapshot horizon")
	}
}

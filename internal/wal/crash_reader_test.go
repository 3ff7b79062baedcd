package wal_test

import (
	"fmt"
	"testing"

	"desyncpfair/internal/faultfs"
	"desyncpfair/internal/wal"
)

// TestCrashMidBatchReaderObservesOnlyRecoverablePrefix is the seeded
// leader-kill proof at the log layer: a tailing reader (the substrate a
// follower replicates from) runs against a log whose filesystem dies
// mid-group-commit. Whatever the reader observed before the kill must be
// a prefix of what crash recovery rebuilds from the same directory —
// i.e. a follower can never hold state the leader itself lost.
func TestCrashMidBatchReaderObservesOnlyRecoverablePrefix(t *testing.T) {
	for _, crashAt := range []int64{900, 1500, 3000} {
		t.Run(fmt.Sprintf("crashAt%d", crashAt), func(t *testing.T) {
			const fsyncEvery = 4
			dir := t.TempDir()
			ffs := faultfs.New(faultfs.Options{Seed: crashAt, CrashAtByte: crashAt})
			l, _, err := wal.Open(dir, wal.Options{FS: ffs, FsyncEvery: fsyncEvery})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}

			r := l.NewReader(1)
			var observed []wal.Record
			observe := func(max int) {
				frames, err := r.NextRaw(max)
				if err != nil {
					return
				}
				for _, f := range frames {
					var rec wal.Record
					if err := wal.UnmarshalRecord(f.Payload, &rec); err != nil {
						t.Fatalf("reader served an undecodable frame at LSN %d: %v", f.LSN, err)
					}
					observed = append(observed, rec)
				}
			}
			var acked uint64
			for i := 0; ; i++ {
				lsn, err := l.Append(wal.Record{Op: wal.OpAdvance, Tenant: "a", At: fmt.Sprint(i)})
				if err != nil {
					break // the filesystem died mid-batch
				}
				acked = lsn
				observe(16)
			}
			observe(64) // drain the last durable bytes
			r.Close()
			l.Close() // wedged; error irrelevant
			if !ffs.Crashed() {
				t.Fatalf("append loop ended without the injected crash (acked %d)", acked)
			}

			l2, rec, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatalf("recovery Open: %v", err)
			}
			defer l2.Close()
			recovered := rec.Records
			for i, rr := range recovered {
				if rr.LSN != uint64(i+1) {
					t.Fatalf("recovered log not contiguous: record %d has LSN %d", i, rr.LSN)
				}
			}
			if len(observed) > len(recovered) {
				t.Fatalf("reader observed %d records, recovery rebuilt only %d", len(observed), len(recovered))
			}
			for i, o := range observed {
				if o.LSN != uint64(i+1) || o.At != recovered[i].At {
					t.Fatalf("observed record %d = %+v diverges from recovered %+v", i, o, recovered[i])
				}
			}
			// Group commit may ack up to one unsynced batch before the
			// kill; anything beyond that bound would be real data loss.
			if acked > uint64(len(recovered))+fsyncEvery {
				t.Fatalf("acked through LSN %d but recovered only %d records (> one batch lost)", acked, len(recovered))
			}
		})
	}
}

package wal_test

import (
	"bytes"
	"io"
	"testing"

	"desyncpfair/internal/faultfs"
	"desyncpfair/internal/wal"
)

// TestAppendSidecarSurvivesPowerLoss: what AppendSidecar wrote is durable
// once it returns — the bytes and, for the call that created the file, its
// directory entry — so a power cut at the very next filesystem operation
// keeps the file whole, after the create and after an append to it. No
// later directory fsync may be counted on: a seal can run beside a
// compaction, so no snapshot install is sure to follow it.
func TestAppendSidecarSurvivesPowerLoss(t *testing.T) {
	parts := [][][]byte{{[]byte("one\n"), []byte("two\n")}, {[]byte("three\n")}}
	// run creates one sidecar and appends to it, calls calls in all; with
	// crashAt > 0 the journal append after them is the power cut. It
	// reports the operations the calls had done by the last one's return.
	run := func(calls int, crashAt int64) (dir, name string, ops int64) {
		dir = t.TempDir()
		ffs := faultfs.New(faultfs.Options{PowerLoss: true, CrashAtOp: crashAt})
		l, _, err := wal.Open(dir, wal.Options{FS: ffs})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		name = l.SidecarName()
		for i := range calls {
			if err := l.AppendSidecar(name, i == 0, parts[i]); err != nil {
				t.Fatal(err)
			}
		}
		ops = ffs.Ops()
		if crashAt > 0 {
			if _, err := l.AppendAsync(wal.Record{Op: wal.OpTerm}); err == nil || !ffs.Crashed() {
				t.Fatalf("the journal append after AppendSidecar did not meet the power cut (%v)", err)
			}
		}
		return dir, name, ops
	}
	for calls := 1; calls <= len(parts); calls++ {
		_, _, ops := run(calls, 0)
		dir, name, _ := run(calls, ops+1)

		l, _, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		f, err := l.OpenSidecar(name)
		if err != nil {
			t.Fatalf("after %d calls and the power cut: %v", calls, err)
		}
		got, err := io.ReadAll(f)
		f.Close()
		l.Close()
		var want []byte
		for _, p := range parts[:calls] {
			want = append(want, bytes.Join(p, nil)...)
		}
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("after %d calls and the power cut the sidecar holds %q (%v), want %q", calls, got, err, want)
		}
	}
}

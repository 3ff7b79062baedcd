package wal_test

import (
	"bytes"
	"io"
	"testing"

	"desyncpfair/internal/faultfs"
	"desyncpfair/internal/wal"
)

// TestWriteSidecarsSurvivesPowerLoss: a sidecar is durable once
// WriteSidecars returns — its bytes and its directory entry — so a power
// cut at the very next filesystem operation keeps the file whole. No later
// directory fsync may be counted on: a seal can run beside a compaction, so
// no snapshot install is sure to follow it.
func TestWriteSidecarsSurvivesPowerLoss(t *testing.T) {
	data := [][]byte{[]byte("one\n"), []byte("two\n")}
	// run writes one sidecar; with crashAt > 0 the append after it is the
	// power cut. It reports the operations WriteSidecars had done by its
	// return.
	run := func(crashAt int64) (dir, name string, ops int64) {
		dir = t.TempDir()
		ffs := faultfs.New(faultfs.Options{PowerLoss: true, CrashAtOp: crashAt})
		l, _, err := wal.Open(dir, wal.Options{FS: ffs})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		name = l.SidecarName()
		if err := l.WriteSidecars([]wal.Sidecar{{Name: name, Data: data}}); err != nil {
			t.Fatal(err)
		}
		ops = ffs.Ops()
		if crashAt > 0 {
			if _, err := l.AppendAsync(wal.Record{Op: wal.OpTerm}); err == nil || !ffs.Crashed() {
				t.Fatalf("the append after WriteSidecars did not meet the power cut (%v)", err)
			}
		}
		return dir, name, ops
	}
	_, _, ops := run(0)
	dir, name, _ := run(ops + 1)

	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	f, err := l.OpenSidecar(name)
	if err != nil {
		t.Fatalf("after the power cut: %v", err)
	}
	defer f.Close()
	got, err := io.ReadAll(f)
	if err != nil || !bytes.Equal(got, bytes.Join(data, nil)) {
		t.Fatalf("after the power cut the sidecar holds %q (%v), want %q", got, err, bytes.Join(data, nil))
	}
}

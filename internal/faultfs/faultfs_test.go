package faultfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"desyncpfair/internal/wal"
)

func TestCrashAtByteIsStickyAndPartial(t *testing.T) {
	dir := t.TempDir()
	fs := New(Options{CrashAtByte: 10})
	f, err := fs.Create(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Write([]byte("1234567")); n != 7 || err != nil {
		t.Fatalf("first write = (%d, %v)", n, err)
	}
	// This write crosses the 10-byte budget: 3 bytes land, then crash.
	n, err := f.Write([]byte("abcdefgh"))
	if n != 3 || !errors.Is(err, ErrCrashed) {
		t.Fatalf("crashing write = (%d, %v), want (3, ErrCrashed)", n, err)
	}
	if !fs.Crashed() {
		t.Fatal("fs not marked crashed")
	}
	if fs.BytesWritten() != 10 {
		t.Fatalf("BytesWritten = %d, want 10", fs.BytesWritten())
	}
	// Every later operation fails — the machine is off.
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash write error = %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash sync error = %v", err)
	}
	if _, err := fs.Create(filepath.Join(dir, "g")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash create error = %v", err)
	}
	if err := fs.Rename(filepath.Join(dir, "f"), filepath.Join(dir, "h")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash rename error = %v", err)
	}
	f.Close() // close still works so tests don't leak descriptors

	// What's on disk is exactly the pre-crash prefix.
	data, err := os.ReadFile(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "1234567abc" {
		t.Fatalf("on-disk bytes = %q, want the 10-byte prefix", data)
	}
}

func TestShortWritesAreSeededDeterministic(t *testing.T) {
	run := func(seed int64) (ns []int, errsAt []int) {
		dir := t.TempDir()
		fs := New(Options{Seed: seed, ShortWriteProb: 3})
		f, _ := fs.Create(filepath.Join(dir, "f"))
		defer f.Close()
		for i := 0; i < 32; i++ {
			n, err := f.Write([]byte("0123456789"))
			ns = append(ns, n)
			if err != nil {
				if !errors.Is(err, io.ErrShortWrite) {
					t.Fatalf("write %d: %v, want ErrShortWrite", i, err)
				}
				errsAt = append(errsAt, i)
			}
		}
		return
	}
	ns1, errs1 := run(7)
	ns2, errs2 := run(7)
	if len(errs1) == 0 {
		t.Fatal("ShortWriteProb=3 injected nothing in 32 writes")
	}
	for i := range ns1 {
		if ns1[i] != ns2[i] {
			t.Fatalf("same seed diverged at write %d: %d vs %d", i, ns1[i], ns2[i])
		}
	}
	if len(errs1) != len(errs2) {
		t.Fatalf("same seed, different error counts: %d vs %d", len(errs1), len(errs2))
	}
	if _, errs3 := run(8); len(errs3) == len(errs1) {
		// Different seeds *may* coincide; the positions must differ
		// somewhere across a 32-write run for these two seeds.
		same := true
		for i := range errs3 {
			if i >= len(errs1) || errs3[i] != errs1[i] {
				same = false
				break
			}
		}
		if same {
			t.Log("seeds 7 and 8 produced identical injections (unlikely but legal)")
		}
	}
}

func TestFailSyncAt(t *testing.T) {
	dir := t.TempDir()
	fs := New(Options{FailSyncAt: 2})
	f, _ := fs.Create(filepath.Join(dir, "f"))
	defer f.Close()
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 1: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjectedSync) {
		t.Fatalf("sync 2 = %v, want ErrInjectedSync", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 3: %v (only the k-th fails)", err)
	}
}

func TestZeroOptionsInjectNothing(t *testing.T) {
	dir := t.TempDir()
	fs := New(Options{})
	var _ wal.FS = fs // compile-time: faultfs satisfies the wal interface
	f, err := fs.Create(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if n, err := f.Write([]byte("abc")); n != 3 || err != nil {
			t.Fatalf("write %d = (%d, %v)", i, n, err)
		}
		if err := f.Sync(); err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
	}
	f.Close()
}

func TestWALSurvivesCrashMidAppend(t *testing.T) {
	// End-to-end with the real wal: crash the filesystem mid-append and
	// check recovery keeps exactly the acknowledged records.
	dir := t.TempDir()
	fs := New(Options{CrashAtByte: 400})
	l, _, err := wal.Open(dir, wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	acked := 0
	for i := 0; i < 100; i++ {
		if _, err := l.Append(wal.Record{Op: wal.OpAdvance, Tenant: "t", At: "1"}); err != nil {
			break
		}
		acked++
	}
	if !fs.Crashed() {
		t.Fatal("400-byte budget never hit in 100 appends")
	}
	if acked == 0 || acked == 100 {
		t.Fatalf("acked = %d, want a mid-run crash", acked)
	}
	l.Close()

	l2, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	defer l2.Close()
	if len(rec.Records) != acked {
		t.Fatalf("recovered %d records, want the %d acknowledged (torn tail must not ack)", len(rec.Records), acked)
	}
	if rec.TruncatedBytes == 0 {
		t.Fatal("expected a torn tail at the crash point")
	}
}

// TestCrashAtOpFailsCleanlyAndSticks: the k-th mutating call fails having
// changed nothing, everything after it fails too, and reads before the
// trigger are not counted.
func TestCrashAtOpFailsCleanlyAndSticks(t *testing.T) {
	dir := t.TempDir()
	fs := New(Options{CrashAtOp: 4})
	f, err := fs.Create(filepath.Join(dir, "a")) // op 1
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil { // op 2
		t.Fatal(err)
	}
	if _, err := fs.ReadDir(dir); err != nil { // a read: not an op
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil { // op 3
		t.Fatal(err)
	}
	if got := fs.Ops(); got != 3 {
		t.Fatalf("Ops() = %d after create, write, sync; want 3", got)
	}
	if err := fs.Rename(filepath.Join(dir, "a"), filepath.Join(dir, "b")); !errors.Is(err, ErrCrashed) { // op 4
		t.Fatalf("op 4 returned %v, want ErrCrashed", err)
	}
	f.Close()
	if !fs.Crashed() {
		t.Fatal("filesystem still alive after its crash op")
	}
	if _, err := os.Stat(filepath.Join(dir, "b")); !os.IsNotExist(err) {
		t.Fatalf("the crashing rename took effect (stat b: %v)", err)
	}
	if data, err := os.ReadFile(filepath.Join(dir, "a")); err != nil || string(data) != "hello" {
		t.Fatalf("file a = %q, %v; want the pre-crash content", data, err)
	}
	if _, err := fs.Create(filepath.Join(dir, "c")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Create after the crash returned %v", err)
	}
}

package faultfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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

// TestPowerLossKeepsSyncedPlusSeededPrefix: at a power cut a file keeps
// what its last Sync covered plus a prefix of the rest whose length the
// seed decides — across seeds, some of the tail and sometimes none of it.
func TestPowerLossKeepsSyncedPlusSeededPrefix(t *testing.T) {
	cut := func(seed int64, crash Options) string {
		dir := t.TempDir()
		crash.Seed, crash.PowerLoss = seed, true
		fs := New(crash)
		path := filepath.Join(dir, "f")
		f, err := fs.Create(path) // op 1
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := fs.SyncDir(dir); err != nil { // op 2
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("synced-")); err != nil { // op 3
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil { // op 4
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("0123456789")); err != nil { // op 5
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("abcdefghij")); !errors.Is(err, ErrCrashed) { // op 6: the crash
			t.Fatalf("crashing write returned %v", err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for _, crash := range []Options{{CrashAtOp: 6}, {CrashAtByte: 20}} {
		kept := map[int]bool{}
		for seed := int64(0); seed < 40; seed++ {
			got := cut(seed, crash)
			if got != cut(seed, crash) {
				t.Fatalf("%+v seed %d: two runs kept different bytes", crash, seed)
			}
			// Under CrashAtByte the crashing write lands 3 bytes first, and
			// they are unsynced tail like the rest.
			written := "synced-0123456789"
			if crash.CrashAtByte > 0 {
				written += "abc"
			}
			if len(got) < len("synced-") || !strings.HasPrefix(written, got) {
				t.Fatalf("%+v seed %d: kept %q, want the synced bytes and a prefix of %q", crash, seed, got, written)
			}
			kept[len(got)-len("synced-")] = true
		}
		if !kept[0] || len(kept) < 4 {
			t.Fatalf("%+v: 40 seeds kept tails of lengths %v; want none sometimes and several lengths", crash, kept)
		}
	}
}

// TestPowerLossUndoesUncoveredNamespaceChanges: a create, rename or remove
// that a SyncDir followed survives the cut; one that none followed is
// undone — a rename over a file brings back the file it replaced.
func TestPowerLossUndoesUncoveredNamespaceChanges(t *testing.T) {
	dir := t.TempDir()
	at := func(name string) string { return filepath.Join(dir, name) }
	for name, data := range map[string]string{"old": "old", "gone": "gone", "victim": "victim"} {
		if err := os.WriteFile(at(name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fs := New(Options{PowerLoss: true, CrashAtOp: 100})
	create := func(name, data string) {
		f, err := fs.Create(at(name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte(data)); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	create("kept", "kept")
	must(fs.Rename(at("old"), at("moved")))
	must(fs.SyncDir(dir)) // covers the two changes above
	create("fresh", "fresh")
	must(fs.Rename(at("moved"), at("moved-again")))
	must(fs.Remove(at("gone")))
	create("tmp", "new")
	must(fs.Rename(at("tmp"), at("victim")))
	for fs.Ops() < 99 {
		must(fs.MkdirAll(dir))
	}
	if err := fs.SyncDir(dir); !errors.Is(err, ErrCrashed) {
		t.Fatalf("op 100 returned %v, want the crash", err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, e := range names {
		data, err := os.ReadFile(at(e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got[e.Name()] = string(data)
	}
	want := map[string]string{"kept": "kept", "moved": "old", "gone": "gone", "victim": "victim"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after the cut the directory holds %v, want %v", got, want)
	}
}

// TestPowerLossFailedSyncDropsUnsynced: a failed Sync cuts its file back
// to what the last good one covered, at once, and the cut keeps no more.
func TestPowerLossFailedSyncDropsUnsynced(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "f")
		fs := New(Options{Seed: seed, PowerLoss: true, FailSyncAt: 2, CrashAtOp: 8})
		f, err := fs.Create(path) // op 1
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.SyncDir(dir); err != nil { // op 2
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("good")); err != nil { // op 3
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil { // op 4, sync 1
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("lost")); err != nil { // op 5
			t.Fatal(err)
		}
		if err := f.Sync(); !errors.Is(err, ErrInjectedSync) { // op 6, sync 2
			t.Fatalf("sync 2 = %v, want ErrInjectedSync", err)
		}
		if data, _ := os.ReadFile(path); string(data) != "good" {
			t.Fatalf("seed %d: after the failed sync the file holds %q, want %q", seed, data, "good")
		}
		if err := fs.MkdirAll(dir); err != nil { // op 7
			t.Fatal(err)
		}
		if err := fs.MkdirAll(dir); !errors.Is(err, ErrCrashed) { // op 8
			t.Fatalf("op 8 = %v, want the crash", err)
		}
		f.Close()
		if data, _ := os.ReadFile(path); string(data) != "good" {
			t.Fatalf("seed %d: after the cut the file holds %q, want %q", seed, data, "good")
		}
	}
}

// TestPowerLossOpenAppendKeepsExtent: a file opened for appending keeps its
// extent, so a power cut takes back only the unsynced part of what was
// appended — never what a Sync covered before or after the open — and a
// file no Create of the filesystem wrote counts as synced to its length.
// Opening changes nothing, so it is no counted operation; a missing file
// is not created, and after the cut nothing opens.
func TestPowerLossOpenAppendKeepsExtent(t *testing.T) {
	cut := func(seed int64) (mine, theirs string) {
		dir := t.TempDir()
		at := func(name string) string { return filepath.Join(dir, name) }
		if err := os.WriteFile(at("theirs"), []byte("before-"), 0o644); err != nil {
			t.Fatal(err)
		}
		fs := New(Options{Seed: seed, PowerLoss: true, CrashAtOp: 9})
		write := func(f wal.File, data string, sync bool) {
			t.Helper()
			if _, err := f.Write([]byte(data)); err != nil {
				t.Fatal(err)
			}
			if sync {
				if err := f.Sync(); err != nil {
					t.Fatal(err)
				}
			}
		}
		f, err := fs.Create(at("mine")) // op 1
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.SyncDir(dir); err != nil { // op 2
			t.Fatal(err)
		}
		write(f, "synced-", true) // ops 3, 4
		f.Close()
		if _, err := fs.OpenAppend(at("missing")); err == nil {
			t.Fatal("OpenAppend created a missing file")
		}
		m, err := fs.OpenAppend(at("mine"))
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		write(m, "more-", true)       // ops 5, 6
		write(m, "0123456789", false) // op 7
		o, err := fs.OpenAppend(at("theirs"))
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		write(o, "0123456789", false) // op 8
		if got := fs.Ops(); got != 8 {
			t.Fatalf("%d operations counted, want 8: an open for appending is none", got)
		}
		if _, err := o.Write([]byte("x")); !errors.Is(err, ErrCrashed) { // op 9: the cut
			t.Fatalf("crashing write returned %v", err)
		}
		if _, err := fs.OpenAppend(at("mine")); !errors.Is(err, ErrCrashed) {
			t.Fatalf("OpenAppend after the cut returned %v", err)
		}
		for name, s := range map[string]*string{"mine": &mine, "theirs": &theirs} {
			data, err := os.ReadFile(at(name))
			if err != nil {
				t.Fatal(err)
			}
			*s = string(data)
		}
		return mine, theirs
	}
	kept := map[string]map[int]bool{"mine": {}, "theirs": {}}
	for seed := int64(0); seed < 40; seed++ {
		mine, theirs := cut(seed)
		if m, o := cut(seed); m != mine || o != theirs {
			t.Fatalf("seed %d: two runs kept different bytes", seed)
		}
		for name, c := range map[string]struct{ got, synced string }{
			"mine":   {mine, "synced-more-"},
			"theirs": {theirs, "before-"},
		} {
			if len(c.got) < len(c.synced) || !strings.HasPrefix(c.synced+"0123456789", c.got) {
				t.Fatalf("seed %d: %s kept %q, want %q and a prefix of the unsynced tail", seed, name, c.got, c.synced)
			}
			kept[name][len(c.got)-len(c.synced)] = true
		}
	}
	for name, k := range kept {
		if !k[0] || len(k) < 4 {
			t.Fatalf("%s: 40 seeds kept tails of lengths %v; want none sometimes and several lengths", name, k)
		}
	}
}

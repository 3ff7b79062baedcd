package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func mustOpen(t *testing.T, dir string, opts Options) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, rec
}

func appendN(t *testing.T, l *Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append(Record{Op: OpAdvance, Tenant: "a", At: fmt.Sprint(i)}); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := mustOpen(t, dir, Options{})
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered %d records, snapshot=%v", len(rec.Records), rec.Snapshot)
	}
	want := []Record{
		{Op: OpTenantCreate, Tenant: "a", M: 2, Policy: "PD2"},
		{Op: OpTaskRegister, Tenant: "a", Name: "x", E: 1, P: 2},
		{Op: OpJobSubmit, Tenant: "a", Name: "x", At: "0"},
		{Op: OpDispatch, Tenant: "a", Name: "x", DSeq: 0, Index: 1, Finish: "1"},
	}
	for i, r := range want {
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn = %d, want %d", lsn, i+1)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	if len(rec2.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(rec2.Records), len(want))
	}
	for i, r := range rec2.Records {
		w := want[i]
		w.LSN = uint64(i + 1)
		if !reflect.DeepEqual(r, w) {
			t.Fatalf("record %d = %+v, want %+v", i, r, w)
		}
	}
	// New appends continue the LSN sequence past the recovered tail.
	if lsn, err := l2.Append(Record{Op: OpDrain, Tenant: "a"}); err != nil || lsn != uint64(len(want)+1) {
		t.Fatalf("post-recovery Append = (%d, %v), want lsn %d", lsn, err, len(want)+1)
	}
}

func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int{1, 4, 7, 8, 9} {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			l, _ := mustOpen(t, dir, Options{})
			appendN(t, l, 3)
			l.Close()

			segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
			if len(segs) != 1 {
				t.Fatalf("want 1 segment, got %v", segs)
			}
			data, err := os.ReadFile(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			// Chop the last record's frame mid-way: a torn final write.
			if err := os.WriteFile(segs[0], data[:len(data)-cut], 0o644); err != nil {
				t.Fatal(err)
			}

			l2, rec := mustOpen(t, dir, Options{})
			defer l2.Close()
			if len(rec.Records) != 2 {
				t.Fatalf("recovered %d records after torn tail, want 2", len(rec.Records))
			}
			if rec.TruncatedBytes == 0 {
				t.Fatalf("TruncatedBytes = 0, want > 0")
			}
		})
	}
}

func TestCorruptPayloadStopsSegment(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	appendN(t, l, 3)
	l.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the second record's payload (records are equal
	// length here); CRC catches it and recovery keeps only the first.
	n := binary.LittleEndian.Uint32(data[0:])
	frame := 8 + int(n)
	data[frame+8+2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec := mustOpen(t, dir, Options{})
	defer l2.Close()
	if len(rec.Records) != 1 {
		t.Fatalf("recovered %d records after corrupt frame, want 1", len(rec.Records))
	}
}

func TestCompactionSupersedesLog(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	appendN(t, l, 5)
	payload := []byte(`{"state":"after five"}`)
	if err := l.Compact(payload); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	appendN(t, l, 2) // tail beyond the snapshot
	l.Close()

	l2, rec := mustOpen(t, dir, Options{})
	defer l2.Close()
	if string(rec.Snapshot) != string(payload) {
		t.Fatalf("snapshot = %q, want %q", rec.Snapshot, payload)
	}
	if rec.SnapshotLSN != 5 {
		t.Fatalf("SnapshotLSN = %d, want 5", rec.SnapshotLSN)
	}
	if len(rec.Records) != 2 {
		t.Fatalf("recovered %d tail records, want 2", len(rec.Records))
	}
	if rec.Records[0].LSN != 6 || rec.Records[1].LSN != 7 {
		t.Fatalf("tail LSNs = %d,%d want 6,7", rec.Records[0].LSN, rec.Records[1].LSN)
	}
}

// TestInvalidSnapshotPayloadRefused: a payload that is not JSON is refused
// by Compact and by InstallSnapshot, and the directory — the installed
// snapshot and every segment, names and bytes — is as it was; the log goes
// on appending.
func TestInvalidSnapshotPayloadRefused(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	defer l.Close()
	appendN(t, l, 3)
	if err := l.Compact([]byte(`{"state":"after three"}`)); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 2)
	files := func() map[string]string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = string(b)
		}
		return out
	}
	before, snaps := files(), l.Stats().Snapshots
	bad := []byte(`{"state":"cut short"`)
	if err := l.Compact(bad); err == nil {
		t.Fatal("Compact took a payload that is not JSON")
	}
	if err := l.InstallSnapshot(bad, l.WrittenLSN()+10, 0); err == nil {
		t.Fatal("InstallSnapshot took a payload that is not JSON")
	}
	if after := files(); !reflect.DeepEqual(after, before) || l.Stats().Snapshots != snaps {
		t.Fatalf("a refused snapshot changed the directory: %d files before, %d after", len(before), len(after))
	}
	appendN(t, l, 1)
	if l.WrittenLSN() != 6 {
		t.Fatalf("written LSN %d after the refusals and one append, want 6", l.WrittenLSN())
	}
}

func TestStaleSegmentFilteredByLSN(t *testing.T) {
	// A crash between snapshot rename and segment deletion leaves stale
	// segments whose records the snapshot already covers; recovery must
	// skip them by LSN. Simulate by copying the pre-compaction segment
	// back in after Compact deleted it.
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	appendN(t, l, 4)
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	stale, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Compact([]byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], stale, 0o644); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, rec := mustOpen(t, dir, Options{})
	defer l2.Close()
	if len(rec.Records) != 0 {
		t.Fatalf("recovered %d records from stale segment, want 0", len(rec.Records))
	}
	if rec.SnapshotLSN != 4 {
		t.Fatalf("SnapshotLSN = %d, want 4", rec.SnapshotLSN)
	}
}

func TestCorruptSnapshotIsFatal(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	appendN(t, l, 1)
	if err := l.Compact([]byte(`{"k":1}`)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// The snapshot is written atomically, so corruption means real damage
	// — unlike a torn log tail it must not be silently ignored.
	path := filepath.Join(dir, "snapshot.json")
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xff
	os.WriteFile(path, data, 0o644)
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open succeeded on corrupt snapshot")
	}
}

// countingFS wraps OSFS to count Sync calls.
type countingFS struct {
	OSFS
	syncs int
}

func (c *countingFS) Create(path string) (File, error) {
	f, err := c.OSFS.Create(path)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

type countingFile struct {
	File
	fs *countingFS
}

func (f *countingFile) Sync() error {
	f.fs.syncs++
	return f.File.Sync()
}

func TestGroupCommitBatchesFsync(t *testing.T) {
	dir := t.TempDir()
	fs := &countingFS{}
	l, _ := mustOpen(t, dir, Options{FS: fs, FsyncEvery: 4})
	base := fs.syncs // segment creation may sync
	appendN(t, l, 8)
	if got := fs.syncs - base; got != 2 {
		t.Fatalf("8 appends at FsyncEvery=4 issued %d fsyncs, want 2", got)
	}
	appendN(t, l, 3)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := fs.syncs - base; got != 3 {
		t.Fatalf("after explicit Sync: %d fsyncs, want 3", got)
	}
	st := l.Stats()
	if st.Appends != 11 || st.Fsyncs != 3 {
		t.Fatalf("Stats = %+v, want 11 appends / 3 fsyncs", st)
	}
	l.Close()
}

// failFS fails every write after the first n.
type failFS struct {
	OSFS
	budget int
}

func (c *failFS) Create(path string) (File, error) {
	f, err := c.OSFS.Create(path)
	if err != nil {
		return nil, err
	}
	return &failFile{File: f, fs: c}, nil
}

type failFile struct {
	File
	fs *failFS
}

func (f *failFile) Write(p []byte) (int, error) {
	if f.fs.budget <= 0 {
		return 0, errors.New("injected write failure")
	}
	f.fs.budget--
	return f.File.Write(p)
}

func TestWriteFailureWedges(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{FS: &failFS{budget: 2}})
	appendN(t, l, 2)
	if _, err := l.Append(Record{Op: OpDrain}); err == nil {
		t.Fatal("Append succeeded past the write budget")
	}
	if !l.Wedged() {
		t.Fatal("log not wedged after write failure")
	}
	// Every later append fails with ErrWedged, even though the fs would
	// now accept writes again — the wedge is sticky by design.
	if _, err := l.Append(Record{Op: OpDrain}); !errors.Is(err, ErrWedged) {
		t.Fatalf("post-wedge Append error = %v, want ErrWedged", err)
	}
	if err := l.Compact([]byte(`{}`)); !errors.Is(err, ErrWedged) {
		t.Fatalf("post-wedge Compact error = %v, want ErrWedged", err)
	}
	st := l.Stats()
	if !st.Wedged || st.AppendErrors != 2 {
		t.Fatalf("Stats = %+v, want wedged with 2 append errors", st)
	}
	l.Close()

	// The two acknowledged records survived.
	l2, rec := mustOpen(t, dir, Options{})
	defer l2.Close()
	if len(rec.Records) != 2 {
		t.Fatalf("recovered %d records, want the 2 acknowledged ones", len(rec.Records))
	}
}

func TestOversizeRecordRejectedCleanly(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	defer l.Close()
	if _, err := l.Append(Record{Op: OpJobSubmit, Name: strings.Repeat("x", maxPayload)}); err == nil {
		t.Fatal("oversize record accepted")
	}
	if l.Wedged() {
		t.Fatal("oversize record wedged the log; it should be rejected without side effects")
	}
	if _, err := l.Append(Record{Op: OpDrain}); err != nil {
		t.Fatalf("append after oversize rejection: %v", err)
	}
}

func TestShouldCompact(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SnapshotEvery: 3})
	defer l.Close()
	appendN(t, l, 2)
	if l.ShouldCompact() {
		t.Fatal("ShouldCompact before threshold")
	}
	appendN(t, l, 1)
	if !l.ShouldCompact() {
		t.Fatal("ShouldCompact false at threshold")
	}
	if err := l.Compact([]byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if l.ShouldCompact() {
		t.Fatal("ShouldCompact true right after Compact")
	}
}

// FuzzWALReplay pins the recovery contract: arbitrary bytes on disk never
// panic or fail Open (they are a torn tail to truncate), and whatever
// valid record prefix they contain round-trips — appending a sentinel
// after recovery and reopening yields exactly the recovered prefix plus
// the sentinel.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	// One valid frame followed by junk.
	payload := []byte(`{"lsn":1,"op":"advance","tenant":"a","at":"1"}`)
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	f.Add(frame)
	f.Add(append(append([]byte{}, frame...), 0xde, 0xad))
	// Huge declared length.
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 'x'})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open on fuzzed segment: %v", err)
		}
		prefix := rec.Records
		lsn, err := l.Append(Record{Op: OpDrain, Tenant: "sentinel"})
		if err != nil {
			t.Fatalf("Append after fuzzed recovery: %v", err)
		}
		l.Close()

		l2, rec2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer l2.Close()
		if len(rec2.Records) != len(prefix)+1 {
			t.Fatalf("reopen recovered %d records, want %d+1", len(rec2.Records), len(prefix))
		}
		for i, r := range prefix {
			if !reflect.DeepEqual(rec2.Records[i], r) {
				t.Fatalf("record %d changed across reopen: %+v vs %+v", i, rec2.Records[i], r)
			}
		}
		last := rec2.Records[len(prefix)]
		if last.Op != OpDrain || last.Tenant != "sentinel" || last.LSN != lsn {
			t.Fatalf("sentinel did not round-trip: %+v (lsn %d)", last, lsn)
		}
	})
}

package wal

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestWALSnapshotFileMatchesMarshal pins the hand-written snapshot
// envelope to the encoder it replaced: for a payload in json.Marshal's
// compact form the installed file must equal json.Marshal(snapshotFile{…})
// byte for byte — term present and omitted, HTML-sensitive characters in
// the payload — and read back unchanged.
func TestWALSnapshotFileMatchesMarshal(t *testing.T) {
	type tenant struct {
		ID  string   `json:"id"`
		Log []string `json:"log,omitempty"`
	}
	payloads := [][]byte{
		[]byte(`{}`),
		[]byte(`{"commands":0}`),
	}
	rich, err := json.Marshal(map[string]any{
		"commands": 7,
		"tenants":  []tenant{{ID: "a<b>&c ", Log: []string{"1/2", "\"q\"", "é"}}, {ID: "z"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	payloads = append(payloads, rich)

	for _, term := range []uint64{0, 3} {
		for _, payload := range payloads {
			dir := t.TempDir()
			l, _ := mustOpen(t, dir, Options{})
			if err := l.SetTerm(term); err != nil {
				t.Fatal(err)
			}
			appendN(t, l, 5)
			if err := l.Compact(payload); err != nil {
				t.Fatalf("Compact: %v", err)
			}
			want, err := json.Marshal(snapshotFile{LSN: 5, Term: term, CRC: crc32.ChecksumIEEE(payload), Payload: payload})
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, snapshotName))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("term %d: snapshot file\n got %s\nwant %s", term, got, want)
			}
			back, lsn, gotTerm, err := l.Snapshot()
			if err != nil || lsn != 5 || gotTerm != term || !bytes.Equal(back, payload) {
				t.Fatalf("Snapshot() = %s @%d term %d, %v; want %s @5 term %d", back, lsn, gotTerm, err, payload, term)
			}
			l.Close()
		}
	}

	// What Marshal refused, the envelope refuses: a payload that is not
	// JSON must never become the directory's snapshot.
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	defer l.Close()
	if err := l.Compact([]byte(`{"commands":`)); err == nil {
		t.Fatal("Compact accepted a truncated payload")
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); !os.IsNotExist(err) {
		t.Fatalf("a refused payload left a snapshot behind (stat: %v)", err)
	}
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	names, err := OSFS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return names
}

// TestWALSidecars covers the sidecar surface: files land under their
// final names only, read back whole (a file given in parts as their
// concatenation), survive Compact (which deletes stale segments, not
// sidecars), and leave exactly when RemoveSidecarsExcept is told the
// installed snapshot no longer names them. Names that could
// reach outside the data directory are refused in both directions.
// readSidecar returns the content of a sidecar stored by AppendSidecar.
func readSidecar(l *Log, name string) ([]byte, error) {
	f, err := l.OpenSidecar(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

func TestWALSidecars(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	defer l.Close()
	appendN(t, l, 3)

	a, b := l.SidecarName(), l.SidecarName()
	if a == b || !isSidecar(a) || !isSidecar(b) {
		t.Fatalf("SidecarName gave %q, %q", a, b)
	}
	if err := l.AppendSidecar(a, false, [][]byte{[]byte("one\n")}); err == nil {
		t.Fatal("AppendSidecar appended to a file no call created")
	}
	for _, w := range []struct {
		name   string
		create bool
		data   [][]byte
	}{
		{a, true, [][]byte{[]byte("one\n")}},
		{b, true, [][]byte{[]byte("two\n"), nil, []byte("two\n")}},
		{a, false, [][]byte{[]byte("three\n")}},
	} {
		if err := l.AppendSidecar(w.name, w.create, w.data); err != nil {
			t.Fatalf("AppendSidecar(%s, %v): %v", w.name, w.create, err)
		}
	}
	for name, want := range map[string]string{a: "one\nthree\n", b: "two\ntwo\n"} {
		got, err := readSidecar(l, name)
		if err != nil || string(got) != want {
			t.Fatalf("sidecar %s holds %q, %v; want %q", name, got, err, want)
		}
	}
	appendN(t, l, 2)
	if c := l.SidecarName(); c == a || c == b {
		t.Fatalf("SidecarName repeated %q after the log advanced", c)
	}
	if err := l.Compact([]byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, dir); len(names) != 4 { // two sidecars, the snapshot, the fresh segment
		t.Fatalf("after Compact the directory holds %v", names)
	}

	// Older versions wrote each sidecar through a tmp — its own, or the one
	// name hist.tmp — which a crash before the rename left behind.
	for _, tmp := range []string{a + ".tmp", "hist.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, tmp), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l.RemoveSidecarsExcept(l.Cut(), map[string]bool{b: true})
	if names := dirNames(t, dir); len(names) != 3 || !slices.Contains(names, b) {
		t.Fatalf("after RemoveSidecarsExcept the directory holds %v, want the kept sidecar, the snapshot and the segment", names)
	}
	if _, err := readSidecar(l, b); err != nil {
		t.Fatalf("the kept sidecar is gone: %v", err)
	}

	for _, bad := range []string{"snapshot.json", "../hist-0-0.ndjson", "hist-/../../x.ndjson", `hist-a\b.ndjson`, "hist-1"} {
		if err := l.AppendSidecar(bad, true, [][]byte{[]byte("x")}); err == nil {
			t.Fatalf("AppendSidecar accepted the name %q", bad)
		}
		if _, err := l.OpenSidecar(bad); err == nil {
			t.Fatalf("OpenSidecar accepted the name %q", bad)
		}
	}
}

// TestSidecarNamesNeverRepeat: a name SidecarName hands out is not handed
// out again — not to concurrent callers, whose files are written side by
// side, and not after a reopen at the same LSN, where the counter starts
// past every sidecar in the directory, one that no snapshot names included.
func TestSidecarNamesNeverRepeat(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	appendN(t, l, 2)
	seen := map[string]bool{}
	names := make(chan string, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := l.SidecarName()
			if err := l.AppendSidecar(name, true, [][]byte{[]byte(name + "\n")}); err != nil {
				t.Error(err)
			}
			names <- name
		}(g)
	}
	wg.Wait()
	close(names)
	for name := range names {
		if seen[name] {
			t.Fatalf("SidecarName handed out %q twice", name)
		}
		seen[name] = true
		if got, err := readSidecar(l, name); err != nil || string(got) != name+"\n" {
			t.Fatalf("sidecar %s holds %q, %v", name, got, err)
		}
	}
	l.Close()

	if err := os.WriteFile(filepath.Join(dir, "hist-0000000000000002-41.ndjson"), []byte("orphan\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, _ = mustOpen(t, dir, Options{})
	defer l.Close()
	if name := l.SidecarName(); seen[name] || !strings.HasSuffix(name, "-42.ndjson") {
		t.Fatalf("after a reopen at the same LSN SidecarName gave %q, want a fresh name ending in -42", name)
	}
}

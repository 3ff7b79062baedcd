package wal

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
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
// final names only, read back whole, survive Compact (which deletes stale
// segments, not sidecars), and leave exactly when RemoveSidecarsExcept is
// told the installed snapshot no longer names them. Names that could
// reach outside the data directory are refused in both directions.
func TestWALSidecars(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	defer l.Close()
	appendN(t, l, 3)

	a, b := l.SidecarName(0), l.SidecarName(1)
	if a == b || !isSidecar(a) || !isSidecar(b) {
		t.Fatalf("SidecarName gave %q, %q", a, b)
	}
	if err := l.WriteSidecars([]Sidecar{{a, []byte("one\n")}, {b, []byte("two\ntwo\n")}}); err != nil {
		t.Fatalf("WriteSidecars: %v", err)
	}
	for name, want := range map[string]string{a: "one\n", b: "two\ntwo\n"} {
		got, err := l.ReadSidecar(name)
		if err != nil || string(got) != want {
			t.Fatalf("ReadSidecar(%s) = %q, %v; want %q", name, got, err, want)
		}
	}
	appendN(t, l, 2)
	if c := l.SidecarName(0); c == a {
		t.Fatalf("SidecarName repeated %q after the log advanced", c)
	}
	if err := l.Compact([]byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, dir); len(names) != 4 { // two sidecars, the snapshot, the fresh segment
		t.Fatalf("after Compact the directory holds %v", names)
	}

	// A crash between the tmp write and the rename leaves the tmp behind.
	if err := os.WriteFile(filepath.Join(dir, sidecarTmp), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	l.RemoveSidecarsExcept(map[string]bool{b: true})
	for _, n := range dirNames(t, dir) {
		if n == a || n == sidecarTmp {
			t.Fatalf("%s survived RemoveSidecarsExcept", n)
		}
	}
	if _, err := l.ReadSidecar(b); err != nil {
		t.Fatalf("the kept sidecar is gone: %v", err)
	}

	for _, bad := range []string{"snapshot.json", "../hist-0-0.ndjson", "hist-/../../x.ndjson", `hist-a\b.ndjson`, "hist-1"} {
		if err := l.WriteSidecars([]Sidecar{{bad, []byte("x")}}); err == nil {
			t.Fatalf("WriteSidecars accepted the name %q", bad)
		}
		if _, err := l.ReadSidecar(bad); err == nil {
			t.Fatalf("ReadSidecar accepted the name %q", bad)
		}
	}
}

package wal

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

const (
	sidecarPrefix = "hist-"
	sidecarSuffix = ".ndjson"
	sidecarTmp    = "hist.tmp"
)

// Sidecar is one immutable file to store beside the journal. See the
// package comment for the write ordering that lets a snapshot payload
// refer to sidecars by name.
type Sidecar struct {
	Name string
	Data []byte
}

// isSidecar reports whether name is one this package hands out: the
// sidecar prefix and suffix around a body with no path separator, so a
// manifest read back from disk can never name a file outside the data
// directory.
func isSidecar(name string) bool {
	return strings.HasPrefix(name, sidecarPrefix) && strings.HasSuffix(name, sidecarSuffix) &&
		!strings.ContainsAny(name, `/\`)
}

// SidecarName returns the name for the k-th sidecar of the next snapshot.
// It carries the LSN that snapshot will be stamped with, which no earlier
// snapshot shares unless nothing was appended in between — and then there
// is nothing new to store either.
func (l *Log) SidecarName(k int) string {
	return fmt.Sprintf("%s%016x-%d%s", sidecarPrefix, l.WrittenLSN(), k, sidecarSuffix)
}

// WriteSidecars durably stores files ahead of the Compact whose payload
// names them: each goes tmp → fsync → rename, then one directory fsync
// covers all the renames. Callers serialize it with Compact (pfaird holds
// its compaction lock across both).
func (l *Log) WriteSidecars(files []Sidecar) error {
	if len(files) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wedged != nil {
		return l.wedged
	}
	if l.closed {
		return fmt.Errorf("wal: log closed")
	}
	for _, sc := range files {
		if !isSidecar(sc.Name) {
			return fmt.Errorf("wal: %q is not a sidecar name", sc.Name)
		}
		if err := l.installFile(sidecarTmp, sc.Name, sc.Data); err != nil {
			return err
		}
	}
	return l.fs.SyncDir(l.dir)
}

// OpenSidecar opens a sidecar stored by WriteSidecars for sequential
// reading. Sidecars are immutable, and removed only once no snapshot names
// them, so a reader needs no lock against the journal.
func (l *Log) OpenSidecar(name string) (io.ReadCloser, error) {
	if !isSidecar(name) {
		return nil, fmt.Errorf("wal: %q is not a sidecar name", name)
	}
	return l.fs.Open(filepath.Join(l.dir, name))
}

// ReadSidecar returns the content of a sidecar stored by WriteSidecars.
func (l *Log) ReadSidecar(name string) ([]byte, error) {
	f, err := l.OpenSidecar(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// RemoveSidecarsExcept deletes every sidecar (and a leftover sidecar tmp)
// that keep does not name — the sidecar half of Compact's stale-segment
// removal, called with the set the just-installed snapshot refers to.
// Best-effort for the same reason: unreferenced files are garbage, never
// state.
func (l *Log) RemoveSidecarsExcept(keep map[string]bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	names, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return
	}
	for _, n := range names {
		if (isSidecar(n) && !keep[n]) || n == sidecarTmp {
			l.fs.Remove(filepath.Join(l.dir, n))
		}
	}
}

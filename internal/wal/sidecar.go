package wal

import (
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"
)

const (
	sidecarPrefix = "hist-"
	sidecarSuffix = ".ndjson"
)

// Sidecar is one immutable file to store beside the journal: the
// concatenation of the slices in Data, written in order, never joined in
// memory. See the package comment for the write ordering that lets a
// snapshot payload refer to sidecars by name.
type Sidecar struct {
	Name string
	Data [][]byte
}

// isSidecar reports whether name is one this package hands out: the
// sidecar prefix and suffix around a body with no path separator, so a
// manifest read back from disk can never name a file outside the data
// directory.
func isSidecar(name string) bool {
	return strings.HasPrefix(name, sidecarPrefix) && strings.HasSuffix(name, sidecarSuffix) &&
		!strings.ContainsAny(name, `/\`)
}

// sidecarSeq is the counter a sidecar name, or its tmp's, ends in, 0 for
// one that ends in none.
func sidecarSeq(name string) uint64 {
	body := strings.TrimSuffix(strings.TrimSuffix(name, ".tmp"), sidecarSuffix)
	k, _ := strconv.ParseUint(body[strings.LastIndexByte(body, '-')+1:], 10, 64)
	return k
}

// SidecarName returns a name for a new sidecar that no other call returns
// in this directory: the LSN written last, for the reader, then a counter
// that Open starts past every sidecar the directory holds. So no seal
// reuses a name a snapshot may refer to — not a concurrent one, not one
// after a restart at the same LSN; a name that a crash took back before
// any snapshot named it is free again.
func (l *Log) SidecarName() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sidecars++
	return fmt.Sprintf("%s%016x-%d%s", sidecarPrefix, l.writtenLSN, l.sidecars, sidecarSuffix)
}

// WriteSidecars durably stores files ahead of the Compact whose payload
// names them: each goes through a temporary name of its own → fsync →
// rename, then one directory fsync covers all the renames. It holds the
// log's lock only to check the log is open, never across a write or an
// fsync, so appends go on beside it, and so may other WriteSidecars.
func (l *Log) WriteSidecars(files []Sidecar) error {
	if len(files) == 0 {
		return nil
	}
	l.mu.Lock()
	err := l.wedged
	if err == nil && l.closed {
		err = fmt.Errorf("wal: log closed")
	}
	l.mu.Unlock()
	if err != nil {
		return err
	}
	for _, sc := range files {
		if !isSidecar(sc.Name) {
			return fmt.Errorf("wal: %q is not a sidecar name", sc.Name)
		}
		if err := l.installFile(sc.Name+".tmp", sc.Name, sc.Data...); err != nil {
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

// RemoveSidecarsExcept deletes every sidecar, and every leftover sidecar
// tmp, named before the cut c that keep does not name — the sidecar half
// of CompactAt's segment removal, called with c and the set the snapshot
// installed there refers to. A name handed out after the cut is left: a
// WriteSidecars beside the compaction wrote it, and the next snapshot
// names it. Best-effort for the same reason as the segments: unreferenced
// files are garbage, never state.
func (l *Log) RemoveSidecarsExcept(c Cut, keep map[string]bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	names, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return
	}
	for _, n := range names {
		if strings.HasPrefix(n, "hist") && !keep[n] && sidecarSeq(n) <= c.sidecars {
			l.fs.Remove(filepath.Join(l.dir, n))
		}
	}
}

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

// AppendSidecar durably appends data — the concatenation of its slices,
// written in order, never joined in memory — to the sidecar called name:
// with create, a new file under a name SidecarName handed out; without, one
// an earlier call created. It writes, fsyncs the file and, when it created
// it, the directory, so what it appended and the file's entry are durable
// when it returns: the order the package comment asks of a file before a
// snapshot names it. A failed call leaves the file's length unknown, so the
// caller appends to it no more and names at most the prefix it knew. It
// holds the log's lock only to check the log is open, never across a write
// or an fsync, so appends go on beside it, and so may other sidecars'.
func (l *Log) AppendSidecar(name string, create bool, data [][]byte) error {
	if !isSidecar(name) {
		return fmt.Errorf("wal: %q is not a sidecar name", name)
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
	open := l.fs.OpenAppend
	if create {
		open = l.fs.Create
	}
	f, err := open(filepath.Join(l.dir, name))
	if err != nil {
		return err
	}
	for _, b := range data {
		if _, err = f.Write(b); err != nil {
			break
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && create {
		err = l.fs.SyncDir(l.dir)
	}
	return err
}

// OpenSidecar opens a sidecar for sequential reading. A sidecar only grows
// at its end, and the prefix a snapshot or a published manifest names is
// immutable — an append lands past it — and removed only once no snapshot
// names it, so a reader that reads no more than that prefix needs no lock
// against the journal or the appender.
func (l *Log) OpenSidecar(name string) (io.ReadCloser, error) {
	if !isSidecar(name) {
		return nil, fmt.Errorf("wal: %q is not a sidecar name", name)
	}
	return l.fs.Open(filepath.Join(l.dir, name))
}

// RemoveSidecarsExcept deletes every sidecar, and every leftover sidecar
// tmp an older version left, named before the cut c that keep does not
// name — the sidecar half of CompactAt's segment removal, called with c and
// the set the snapshot installed there refers to. A name handed out after
// the cut is left: an AppendSidecar beside the compaction created it, and
// the next snapshot names it. Best-effort for the same reason as the segments: unreferenced
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

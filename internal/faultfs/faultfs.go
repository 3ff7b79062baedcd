// Package faultfs is a deterministic error-injecting filesystem for the
// crash-recovery suite. It wraps the real filesystem behind wal.FS and,
// driven entirely by its Options (a seed and fixed trigger points — no
// wall clock, no global state), produces the failure modes a write-ahead
// log must survive:
//
//   - crash-at-byte-N: once cumulative written bytes would exceed the
//     budget, the write lands partially (up to the boundary) and the
//     filesystem dies — every later operation fails. This models pulling
//     the plug mid-write and is what produces torn frames on disk.
//   - seeded short writes: a write persists only half its bytes and
//     returns io.ErrShortWrite, exercising the log's wedge-on-error path.
//   - k-th fsync failure: Sync returns an injected error at a chosen
//     call, exercising group-commit failure handling.
//   - crash-at-operation-K: the filesystem dies at the K-th mutating call
//     (create, write, sync, rename, remove, directory sync), which fails
//     having changed nothing. Sweeping K over a multi-file protocol — a
//     compaction's tmp/fsync/rename sequences — visits every point a
//     crash can separate two steps at.
//   - power loss (Options.PowerLoss): either crash point above becomes a
//     power cut rather than a process crash. Each file written through
//     the filesystem keeps its last fsynced length plus a seeded prefix of
//     its unsynced tail, since a disk may have kept some of it; a create,
//     rename or remove that no SyncDir of its directory followed is
//     undone; and a failed Sync drops the file's unsynced bytes at once,
//     as Linux may drop dirty pages after it reports a writeback error.
//     Without it, every byte written before the crash point survives.
//
// The same Options always produce the same failure at the same point, so
// every crash test is replayable from its seed.
package faultfs

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"desyncpfair/internal/wal"
)

// ErrCrashed is returned by every operation after the crash point.
var ErrCrashed = errors.New("faultfs: simulated crash")

// ErrInjectedSync is returned by the designated failing Sync call.
var ErrInjectedSync = errors.New("faultfs: injected fsync failure")

// Options selects which faults to inject. The zero value injects nothing.
type Options struct {
	// Seed drives the short-write coin flips.
	Seed int64
	// CrashAtByte, when > 0, kills the filesystem once total bytes
	// written across all files would exceed it: the triggering write
	// persists only up to the budget boundary, then everything returns
	// ErrCrashed.
	CrashAtByte int64
	// ShortWriteProb, when > 0, makes roughly 1-in-N writes persist only
	// half their bytes and return io.ErrShortWrite.
	ShortWriteProb int
	// FailSyncAt, when > 0, makes the k-th Sync call (1-based, across all
	// files) return ErrInjectedSync.
	FailSyncAt int
	// CrashAtOp, when > 0, kills the filesystem at the k-th mutating
	// operation (1-based; Ops counts them): that call and every later one
	// return ErrCrashed, and it changes nothing on disk.
	CrashAtOp int64
	// PowerLoss makes the crash point a power cut: what no fsync covered
	// may be lost, as the package doc says, the seeded prefixes drawn from
	// Seed. A failed Sync drops that file's unsynced bytes.
	PowerLoss bool
}

// FS implements wal.FS over the real filesystem with injected faults.
type FS struct {
	under wal.FS
	opt   Options

	mu      sync.Mutex
	rng     *rand.Rand
	written int64
	syncs   int
	ops     int64
	crashed bool
	// What a power loss acts on: each written path's extent, and (with
	// PowerLoss) the namespace changes no SyncDir has covered yet, oldest
	// first.
	files   map[string]*extent
	pending []nsChange
}

// extent is what a file written through the filesystem holds: its length
// as written, and as far as a Sync has made it durable.
type extent struct{ size, synced int64 }

// nsChange is a create, rename or remove in dir that no SyncDir of dir has
// made durable yet; undo reverts it, on disk and in FS.files.
type nsChange struct {
	dir  string
	undo func()
}

// New builds a fault-injecting filesystem over the real one.
func New(opt Options) *FS {
	return &FS{under: wal.OSFS{}, opt: opt, rng: rand.New(rand.NewSource(opt.Seed)), files: map[string]*extent{}}
}

// Crashed reports whether the crash point has been reached.
func (fs *FS) Crashed() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.crashed
}

// BytesWritten reports the total bytes persisted so far.
func (fs *FS) BytesWritten() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.written
}

// Ops reports how many mutating operations have been attempted so far —
// the scale CrashAtOp is set on.
func (fs *FS) Ops() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.ops
}

// Syncs reports how many Sync calls have been made so far — the scale
// FailSyncAt is set on.
func (fs *FS) Syncs() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.syncs
}

// mutateLocked gates one mutating operation, fs.mu held: it counts it
// and, at the CrashAtOp trigger, dies instead of letting it through. Every
// mutating call holds fs.mu until it has changed the disk, so none lands
// after a power loss took effect.
func (fs *FS) mutateLocked() error {
	if fs.crashed {
		return ErrCrashed
	}
	fs.ops++
	if fs.opt.CrashAtOp > 0 && fs.ops >= fs.opt.CrashAtOp {
		fs.crashLocked()
		return ErrCrashed
	}
	return nil
}

// crashLocked reaches the crash point. Under PowerLoss it first undoes,
// newest first, every namespace change no SyncDir covered, then cuts each
// file written through the filesystem to its synced length plus a seeded
// prefix of the rest, in path order so the seed decides it.
func (fs *FS) crashLocked() {
	fs.crashed = true
	if !fs.opt.PowerLoss {
		return
	}
	for i := len(fs.pending) - 1; i >= 0; i-- {
		fs.pending[i].undo()
	}
	fs.pending = nil
	paths := make([]string, 0, len(fs.files))
	for p := range fs.files {
		paths = append(paths, p)
	}
	slices.Sort(paths)
	for _, p := range paths {
		e := fs.files[p]
		keep := e.synced
		if tail := e.size - e.synced; tail > 0 {
			keep += fs.rng.Int63n(tail + 1)
		}
		_ = os.Truncate(p, keep)
	}
}

// changed records a namespace change in path's directory, with PowerLoss.
func (fs *FS) changed(path string, undo func()) {
	if fs.opt.PowerLoss {
		fs.pending = append(fs.pending, nsChange{dir: filepath.Dir(path), undo: undo})
	}
}

// saved reads what path holds, with PowerLoss, for an undo to restore; ok
// reports that it held something.
func (fs *FS) saved(path string) (data []byte, e *extent, ok bool) {
	if !fs.opt.PowerLoss {
		return nil, nil, false
	}
	data, err := os.ReadFile(path)
	return data, fs.files[path], err == nil
}

func (fs *FS) check() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return ErrCrashed
	}
	return nil
}

func (fs *FS) Create(path string) (wal.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.mutateLocked(); err != nil {
		return nil, err
	}
	_, err := os.Stat(path)
	existed := err == nil
	f, err := fs.under.Create(path)
	if err != nil {
		return nil, err
	}
	e := &extent{}
	fs.files[path] = e
	if !existed {
		fs.changed(path, func() {
			_ = os.Remove(path)
			delete(fs.files, path)
		})
	}
	return &file{fs: fs, f: f, path: path, ext: e}, nil
}

func (fs *FS) Open(path string) (wal.File, error) {
	if err := fs.check(); err != nil {
		return nil, err
	}
	f, err := fs.under.Open(path)
	if err != nil {
		return nil, err
	}
	return &file{fs: fs, f: f, path: path}, nil
}

// OpenAppend opens an existing file for appending. The file keeps its
// extent, so a power cut takes back only what was appended and not yet
// synced; a file no Create of this filesystem wrote counts as synced to
// its length. Opening changes nothing on disk, so it is no operation
// CrashAtOp counts.
func (fs *FS) OpenAppend(path string) (wal.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return nil, ErrCrashed
	}
	f, err := fs.under.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	e := fs.files[path]
	if e == nil {
		st, err := os.Stat(path)
		if err != nil {
			f.Close()
			return nil, err
		}
		e = &extent{size: st.Size(), synced: st.Size()}
		fs.files[path] = e
	}
	return &file{fs: fs, f: f, path: path, ext: e}, nil
}

func (fs *FS) Rename(oldPath, newPath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.mutateLocked(); err != nil {
		return err
	}
	data, replaced, existed := fs.saved(newPath)
	if err := fs.under.Rename(oldPath, newPath); err != nil {
		return err
	}
	moved, tracked := fs.files[oldPath]
	delete(fs.files, oldPath)
	delete(fs.files, newPath)
	if tracked {
		fs.files[newPath] = moved
	}
	fs.changed(newPath, func() {
		_ = os.Rename(newPath, oldPath)
		delete(fs.files, newPath)
		if tracked {
			fs.files[oldPath] = moved
		}
		if existed {
			_ = os.WriteFile(newPath, data, 0o644)
			if replaced != nil {
				fs.files[newPath] = replaced
			}
		}
	})
	return nil
}

func (fs *FS) Remove(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.mutateLocked(); err != nil {
		return err
	}
	data, e, existed := fs.saved(path)
	if err := fs.under.Remove(path); err != nil {
		return err
	}
	delete(fs.files, path)
	if existed {
		fs.changed(path, func() {
			_ = os.WriteFile(path, data, 0o644)
			if e != nil {
				fs.files[path] = e
			}
		})
	}
	return nil
}

func (fs *FS) ReadDir(dir string) ([]string, error) {
	if err := fs.check(); err != nil {
		return nil, err
	}
	return fs.under.ReadDir(dir)
}

func (fs *FS) MkdirAll(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.mutateLocked(); err != nil {
		return err
	}
	return fs.under.MkdirAll(dir)
}

// SyncDir makes the namespace changes in dir durable.
func (fs *FS) SyncDir(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.mutateLocked(); err != nil {
		return err
	}
	if err := fs.under.SyncDir(dir); err != nil {
		return err
	}
	dir = filepath.Clean(dir)
	fs.pending = slices.DeleteFunc(fs.pending, func(c nsChange) bool { return c.dir == dir })
	return nil
}

// file is an open file; ext, nil for a file opened to read, is its
// extent.
type file struct {
	fs   *FS
	f    wal.File
	path string
	ext  *extent
}

func (f *file) Read(p []byte) (int, error) {
	if err := f.fs.check(); err != nil {
		return 0, err
	}
	return f.f.Read(p)
}

// Write applies the crash budget and short-write injection. The partial
// prefix that lands before a fault models exactly what a torn write
// leaves on disk.
func (f *file) Write(p []byte) (int, error) {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.mutateLocked(); err != nil {
		return 0, err
	}
	allow := len(p)
	var failWith error
	if fs.opt.CrashAtByte > 0 && fs.written+int64(len(p)) > fs.opt.CrashAtByte {
		allow = max(int(fs.opt.CrashAtByte-fs.written), 0)
		failWith = ErrCrashed
	} else if fs.opt.ShortWriteProb > 0 && fs.rng.Intn(fs.opt.ShortWriteProb) == 0 {
		allow = len(p) / 2
		failWith = io.ErrShortWrite
	}
	n := 0
	if allow > 0 {
		var err error
		n, err = f.f.Write(p[:allow])
		if err != nil && failWith == nil {
			failWith = err
		}
	}
	fs.written += int64(n)
	if f.ext != nil {
		f.ext.size += int64(n)
	}
	if failWith == ErrCrashed {
		fs.crashLocked()
	}
	return n, failWith
}

// Sync makes what was written so far durable, or fails: at FailSyncAt,
// or as the real fsync does. A failed Sync under PowerLoss cuts the file
// back to its synced length.
func (f *file) Sync() error {
	fs := f.fs
	fs.mu.Lock()
	if err := fs.mutateLocked(); err != nil {
		fs.mu.Unlock()
		return err
	}
	fs.syncs++
	var err error
	if fs.opt.FailSyncAt > 0 && fs.syncs == fs.opt.FailSyncAt {
		err = ErrInjectedSync
	}
	var size int64
	if f.ext != nil {
		size = f.ext.size
	}
	fs.mu.Unlock()
	if err == nil {
		err = f.f.Sync()
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	switch {
	case fs.crashed && fs.opt.PowerLoss:
		return ErrCrashed // the power went before the sync was known done
	case f.ext == nil:
	case err != nil && fs.opt.PowerLoss:
		f.ext.size = f.ext.synced
		_ = os.Truncate(f.path, f.ext.synced)
	case err == nil:
		f.ext.synced = max(f.ext.synced, size)
	}
	return err
}

func (f *file) Close() error {
	// Close always reaches the real file so tests don't leak descriptors,
	// even after a simulated crash.
	return f.f.Close()
}

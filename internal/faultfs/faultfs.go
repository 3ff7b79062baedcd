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
//
// The same Options always produce the same failure at the same point, so
// every crash test is replayable from its seed.
package faultfs

import (
	"errors"
	"io"
	"math/rand"
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
}

// New builds a fault-injecting filesystem over the real one.
func New(opt Options) *FS {
	return &FS{under: wal.OSFS{}, opt: opt, rng: rand.New(rand.NewSource(opt.Seed))}
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

// mutate gates one mutating operation: it counts it and, at the CrashAtOp
// trigger, dies instead of letting it through.
func (fs *FS) mutate() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return ErrCrashed
	}
	fs.ops++
	if fs.opt.CrashAtOp > 0 && fs.ops >= fs.opt.CrashAtOp {
		fs.crashed = true
		return ErrCrashed
	}
	return nil
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
	if err := fs.mutate(); err != nil {
		return nil, err
	}
	f, err := fs.under.Create(path)
	if err != nil {
		return nil, err
	}
	return &file{fs: fs, f: f}, nil
}

func (fs *FS) Open(path string) (wal.File, error) {
	if err := fs.check(); err != nil {
		return nil, err
	}
	f, err := fs.under.Open(path)
	if err != nil {
		return nil, err
	}
	return &file{fs: fs, f: f}, nil
}

func (fs *FS) Rename(oldPath, newPath string) error {
	if err := fs.mutate(); err != nil {
		return err
	}
	return fs.under.Rename(oldPath, newPath)
}

func (fs *FS) Remove(path string) error {
	if err := fs.mutate(); err != nil {
		return err
	}
	return fs.under.Remove(path)
}

func (fs *FS) ReadDir(dir string) ([]string, error) {
	if err := fs.check(); err != nil {
		return nil, err
	}
	return fs.under.ReadDir(dir)
}

func (fs *FS) MkdirAll(dir string) error {
	if err := fs.mutate(); err != nil {
		return err
	}
	return fs.under.MkdirAll(dir)
}

func (fs *FS) SyncDir(dir string) error {
	if err := fs.mutate(); err != nil {
		return err
	}
	return fs.under.SyncDir(dir)
}

type file struct {
	fs *FS
	f  wal.File
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
	if err := f.fs.mutate(); err != nil {
		return 0, err
	}
	f.fs.mu.Lock()
	if f.fs.crashed {
		f.fs.mu.Unlock()
		return 0, ErrCrashed
	}
	allow := len(p)
	var failWith error
	if f.fs.opt.CrashAtByte > 0 && f.fs.written+int64(len(p)) > f.fs.opt.CrashAtByte {
		allow = int(f.fs.opt.CrashAtByte - f.fs.written)
		if allow < 0 {
			allow = 0
		}
		f.fs.crashed = true
		failWith = ErrCrashed
	} else if f.fs.opt.ShortWriteProb > 0 && f.fs.rng.Intn(f.fs.opt.ShortWriteProb) == 0 {
		allow = len(p) / 2
		failWith = io.ErrShortWrite
	}
	f.fs.mu.Unlock()

	n := 0
	if allow > 0 {
		var err error
		n, err = f.f.Write(p[:allow])
		if err != nil && failWith == nil {
			failWith = err
		}
	}
	f.fs.mu.Lock()
	f.fs.written += int64(n)
	f.fs.mu.Unlock()
	if failWith != nil {
		return n, failWith
	}
	return n, nil
}

func (f *file) Sync() error {
	if err := f.fs.mutate(); err != nil {
		return err
	}
	f.fs.mu.Lock()
	if f.fs.crashed {
		f.fs.mu.Unlock()
		return ErrCrashed
	}
	f.fs.syncs++
	fail := f.fs.opt.FailSyncAt > 0 && f.fs.syncs == f.fs.opt.FailSyncAt
	f.fs.mu.Unlock()
	if fail {
		return ErrInjectedSync
	}
	return f.f.Sync()
}

func (f *file) Close() error {
	// Close always reaches the real file so tests don't leak descriptors,
	// even after a simulated crash.
	return f.f.Close()
}

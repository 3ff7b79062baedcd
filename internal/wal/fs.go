package wal

import (
	"io"
	"os"
)

// FS is the narrow filesystem surface the log writes through. The real
// implementation is OSFS; internal/faultfs wraps it to inject short
// writes, fsync failures, and crash-at-byte-N for the recovery suite.
type FS interface {
	// Create truncates or creates path for appending.
	Create(path string) (File, error)
	// Open opens path read-only.
	Open(path string) (File, error)
	// OpenAppend opens the existing file path for appending.
	OpenAppend(path string) (File, error)
	Rename(oldPath, newPath string) error
	Remove(path string) error
	// ReadDir lists the names (not paths) of dir's entries.
	ReadDir(dir string) ([]string, error)
	MkdirAll(dir string) error
	// SyncDir fsyncs the directory itself so renames and creates are
	// durable, not just the file contents.
	SyncDir(dir string) error
}

// File is the per-file surface: sequential reads or appends plus fsync.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) Create(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

func (OSFS) Open(path string) (File, error) { return os.Open(path) }

func (OSFS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
}

func (OSFS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

func (OSFS) Remove(path string) error { return os.Remove(path) }

func (OSFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names, nil
}

func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

package main

import (
	"path"
	"sync"
	"time"

	"repro/internal/engine/storage"
	"repro/internal/engine/wal"
)

// fileCounts is what the engine asked of one class of files.
type fileCounts struct {
	Writes     int64
	WriteBytes int64
	Syncs      int64
	SyncTime   time.Duration
}

// countingVFS wraps a storage.VFS and counts and times the writes and
// syncs that go through it, the log's apart from the checkpoint's, so
// that the wal.* metrics are measured at the boundary where the bytes
// leave the engine. With a tracer it also records each write and sync as
// a span.
type countingVFS struct {
	inner storage.VFS
	tr    *tracer

	mu   sync.Mutex
	log  fileCounts // files named wal.FileName
	rest fileCounts // checkpoints and anything else
}

func newCountingVFS(inner storage.VFS, tr *tracer) *countingVFS {
	return &countingVFS{inner: inner, tr: tr}
}

// counts returns the totals so far for the log and for all other files;
// zeros for the nil wrapper of an untraced run.
func (v *countingVFS) counts() (log, rest fileCounts) {
	if v == nil {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.log, v.rest
}

func (v *countingVFS) wrap(name string, f storage.File, err error) (storage.File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, vfs: v, isLog: path.Base(name) == wal.FileName}, nil
}

func (v *countingVFS) Create(name string) (storage.File, error) {
	f, err := v.inner.Create(name)
	return v.wrap(name, f, err)
}

func (v *countingVFS) Open(name string) (storage.File, error) {
	f, err := v.inner.Open(name)
	return v.wrap(name, f, err)
}

func (v *countingVFS) Remove(name string) error             { return v.inner.Remove(name) }
func (v *countingVFS) Rename(oldpath, newpath string) error { return v.inner.Rename(oldpath, newpath) }
func (v *countingVFS) MkdirAll(dir string) error            { return v.inner.MkdirAll(dir) }
func (v *countingVFS) Stat(name string) (int64, error)      { return v.inner.Stat(name) }

type countingFile struct {
	storage.File
	vfs   *countingVFS
	isLog bool
}

func (f *countingFile) bucket() (*fileCounts, string) {
	if f.isLog {
		return &f.vfs.log, "wal"
	}
	return &f.vfs.rest, "checkpoint"
}

func (f *countingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	end := time.Now()
	f.vfs.mu.Lock()
	c, kind := f.bucket()
	c.Writes++
	c.WriteBytes += int64(n)
	f.vfs.mu.Unlock()
	f.vfs.tr.orphan(kind+".write", start, end)
	return n, err
}

func (f *countingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	end := time.Now()
	f.vfs.mu.Lock()
	c, kind := f.bucket()
	c.Syncs++
	c.SyncTime += end.Sub(start)
	f.vfs.mu.Unlock()
	f.vfs.tr.orphan(kind+".sync", start, end)
	return err
}

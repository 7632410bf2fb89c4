package storage

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path"
	"slices"
	"sort"
	"sync"
)

// VFS abstracts the filesystem operations the durability layer performs
// (write-ahead log and checkpoint files). Production code uses OSFS; tests
// drive every recovery path deterministically through MemVFS wrapped in a
// FaultVFS, without killing the process. Paths are slash-separated.
type VFS interface {
	// Create opens name for writing, creating it and truncating any
	// existing content.
	Create(name string) (File, error)
	// Open opens an existing file for reading and writing; the error
	// wraps fs.ErrNotExist when the file is missing.
	Open(name string) (File, error)
	// Remove deletes a file.
	Remove(name string) error
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(dir string) error
	// Stat returns the size of name; the error wraps fs.ErrNotExist when
	// the file is missing.
	Stat(name string) (int64, error)
}

// File is an open file of a VFS.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	// Sync makes previously written data durable.
	Sync() error
	// Truncate cuts the file to size bytes.
	Truncate(size int64) error
}

// OSFS is the passthrough VFS over the operating system's filesystem.
type OSFS struct{}

// Create implements VFS.
func (OSFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

// Open implements VFS.
func (OSFS) Open(name string) (File, error) { return os.OpenFile(name, os.O_RDWR, 0) }

// Remove implements VFS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// Rename implements VFS.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// MkdirAll implements VFS.
func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// Stat implements VFS.
func (OSFS) Stat(name string) (int64, error) {
	fi, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// MemVFS is an in-memory VFS. It is safe for concurrent use and survives
// across FaultVFS crash points: a simulated crash discards the faulting
// wrapper, and recovery reopens the same MemVFS to see exactly the bytes
// that were written before the crash.
type MemVFS struct {
	mu    sync.Mutex
	files map[string]*memData
	dirs  map[string]bool
}

type memData struct {
	b []byte
}

// extend lengthens the file to size bytes, growing its array with
// amortised cost, and zeroes the new bytes before zeroTo. Spare capacity
// can still hold bytes an earlier Truncate cut off, so every new byte
// that the caller does not overwrite must be cleared.
func (d *memData) extend(size, zeroTo int) {
	old := len(d.b)
	d.b = slices.Grow(d.b, size-old)[:size]
	clear(d.b[old:max(old, zeroTo)])
}

// NewMemVFS returns an empty in-memory filesystem.
func NewMemVFS() *MemVFS {
	return &MemVFS{files: map[string]*memData{}, dirs: map[string]bool{"": true, ".": true}}
}

// Create implements VFS.
func (v *MemVFS) Create(name string) (File, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	d := &memData{}
	v.files[path.Clean(name)] = d
	return &memFile{vfs: v, data: d}, nil
}

// Open implements VFS.
func (v *MemVFS) Open(name string) (File, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	d, ok := v.files[path.Clean(name)]
	if !ok {
		return nil, fmt.Errorf("memvfs: open %s: %w", name, fs.ErrNotExist)
	}
	return &memFile{vfs: v, data: d}, nil
}

// Remove implements VFS.
func (v *MemVFS) Remove(name string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	name = path.Clean(name)
	if _, ok := v.files[name]; !ok {
		return fmt.Errorf("memvfs: remove %s: %w", name, fs.ErrNotExist)
	}
	delete(v.files, name)
	return nil
}

// Rename implements VFS.
func (v *MemVFS) Rename(oldpath, newpath string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	d, ok := v.files[path.Clean(oldpath)]
	if !ok {
		return fmt.Errorf("memvfs: rename %s: %w", oldpath, fs.ErrNotExist)
	}
	delete(v.files, path.Clean(oldpath))
	v.files[path.Clean(newpath)] = d
	return nil
}

// MkdirAll implements VFS.
func (v *MemVFS) MkdirAll(dir string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.dirs[path.Clean(dir)] = true
	return nil
}

// Stat implements VFS.
func (v *MemVFS) Stat(name string) (int64, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	d, ok := v.files[path.Clean(name)]
	if !ok {
		return 0, fmt.Errorf("memvfs: stat %s: %w", name, fs.ErrNotExist)
	}
	return int64(len(d.b)), nil
}

// Names returns the stored file names, sorted, for diagnostics.
func (v *MemVFS) Names() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]string, 0, len(v.files))
	for name := range v.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

type memFile struct {
	vfs  *MemVFS
	data *memData
	pos  int64
}

func (f *memFile) Read(p []byte) (int, error) {
	f.vfs.mu.Lock()
	defer f.vfs.mu.Unlock()
	if f.pos >= int64(len(f.data.b)) {
		return 0, io.EOF
	}
	n := copy(p, f.data.b[f.pos:])
	f.pos += int64(n)
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.vfs.mu.Lock()
	defer f.vfs.mu.Unlock()
	end := f.pos + int64(len(p))
	if end > int64(len(f.data.b)) {
		f.data.extend(int(end), int(f.pos))
	}
	copy(f.data.b[f.pos:end], p)
	f.pos = end
	return len(p), nil
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	f.vfs.mu.Lock()
	defer f.vfs.mu.Unlock()
	switch whence {
	case io.SeekStart:
		f.pos = offset
	case io.SeekCurrent:
		f.pos += offset
	case io.SeekEnd:
		f.pos = int64(len(f.data.b)) + offset
	default:
		return 0, errors.New("memvfs: bad whence")
	}
	if f.pos < 0 {
		f.pos = 0
		return 0, errors.New("memvfs: negative seek")
	}
	return f.pos, nil
}

func (f *memFile) Close() error { return nil }
func (f *memFile) Sync() error  { return nil }

func (f *memFile) Truncate(size int64) error {
	f.vfs.mu.Lock()
	defer f.vfs.mu.Unlock()
	if size < 0 {
		return errors.New("memvfs: negative truncate")
	}
	if size <= int64(len(f.data.b)) {
		f.data.b = f.data.b[:size]
	} else {
		f.data.extend(int(size), int(size))
	}
	return nil
}

// ErrCrashed is returned by every FaultVFS operation at and after the
// injected crash point: the simulated process is dead, so no further
// mutation reaches the underlying filesystem.
var ErrCrashed = errors.New("storage: simulated crash")

// FaultVFS wraps a VFS with a deterministic fault schedule. Every
// mutating operation (create, write, sync, truncate, rename, remove,
// mkdir) increments a global counter; the operation whose 1-based index
// equals FailAtOp fails, and every later operation fails too (crash-stop
// semantics — the process never gets to issue more I/O). If the failing
// operation is a write and Torn is set, a prefix of the buffer reaches
// the underlying file first, modeling a torn write.
//
// Running a workload once with FailAtOp 0 and reading OpCount/OpKinds
// yields the complete crash-point schedule; rerunning it once per index
// enumerates every reachable crash state.
//
// Transient switches the schedule from crash-stop to single-fault: only
// the FailAtOp-th operation fails and later I/O proceeds normally. That
// models a recoverable I/O error (ENOSPC, EIO) rather than a dead
// process, and lets error-path cleanup — e.g. a spilling operator
// removing its partial run files — be asserted against the inner VFS.
type FaultVFS struct {
	Inner VFS
	// FailAtOp is the 1-based index of the first operation to fail; 0
	// disables fault injection.
	FailAtOp int
	// Torn makes the failing write persist the first half of its buffer.
	Torn bool
	// Transient fails only the FailAtOp-th operation instead of that one
	// and every later one.
	Transient bool

	mu      sync.Mutex
	ops     int
	kinds   []string
	crashed bool
}

// OpCount returns the number of mutating operations attempted so far.
func (v *FaultVFS) OpCount() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.ops
}

// OpKinds returns the kind of each mutating operation attempted so far
// ("write", "sync", ...), indexed by operation number minus one.
func (v *FaultVFS) OpKinds() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]string(nil), v.kinds...)
}

// Crashed reports whether the fault has triggered.
func (v *FaultVFS) Crashed() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.crashed
}

// step records one mutating operation and reports whether it must fail;
// the second result is true when this operation is the crash point itself
// (eligible for a torn prefix).
func (v *FaultVFS) step(kind string) (fail, atPoint bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.ops++
	v.kinds = append(v.kinds, kind)
	if v.crashed {
		return true, false
	}
	if v.FailAtOp > 0 && v.ops >= v.FailAtOp {
		if v.Transient {
			// Single-fault mode: this operation fails, the process lives
			// on, and no later operation is scheduled to fail.
			if v.ops == v.FailAtOp {
				return true, true
			}
			return false, false
		}
		v.crashed = true
		return true, true
	}
	return false, false
}

// Create implements VFS.
func (v *FaultVFS) Create(name string) (File, error) {
	if fail, _ := v.step("create"); fail {
		return nil, fmt.Errorf("create %s: %w", name, ErrCrashed)
	}
	f, err := v.Inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{vfs: v, inner: f, name: name}, nil
}

// Open implements VFS. Opening is read-side and never counts as a
// mutating operation, but a crashed VFS refuses it anyway.
func (v *FaultVFS) Open(name string) (File, error) {
	if v.Crashed() {
		return nil, fmt.Errorf("open %s: %w", name, ErrCrashed)
	}
	f, err := v.Inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{vfs: v, inner: f, name: name}, nil
}

// Remove implements VFS.
func (v *FaultVFS) Remove(name string) error {
	if fail, _ := v.step("remove"); fail {
		return fmt.Errorf("remove %s: %w", name, ErrCrashed)
	}
	return v.Inner.Remove(name)
}

// Rename implements VFS.
func (v *FaultVFS) Rename(oldpath, newpath string) error {
	if fail, _ := v.step("rename"); fail {
		return fmt.Errorf("rename %s: %w", oldpath, ErrCrashed)
	}
	return v.Inner.Rename(oldpath, newpath)
}

// MkdirAll implements VFS.
func (v *FaultVFS) MkdirAll(dir string) error {
	if fail, _ := v.step("mkdir"); fail {
		return fmt.Errorf("mkdir %s: %w", dir, ErrCrashed)
	}
	return v.Inner.MkdirAll(dir)
}

// Stat implements VFS.
func (v *FaultVFS) Stat(name string) (int64, error) {
	if v.Crashed() {
		return 0, fmt.Errorf("stat %s: %w", name, ErrCrashed)
	}
	return v.Inner.Stat(name)
}

type faultFile struct {
	vfs   *FaultVFS
	inner File
	name  string
}

func (f *faultFile) Read(p []byte) (int, error) {
	if f.vfs.Crashed() {
		return 0, ErrCrashed
	}
	return f.inner.Read(p)
}

func (f *faultFile) Write(p []byte) (int, error) {
	fail, atPoint := f.vfs.step("write")
	if fail {
		if atPoint && f.vfs.Torn && len(p) >= 2 {
			// Torn write: half the buffer reaches the disk before the
			// crash.
			if n, err := f.inner.Write(p[:len(p)/2]); err != nil {
				return n, err
			}
		}
		return 0, fmt.Errorf("write %s: %w", f.name, ErrCrashed)
	}
	return f.inner.Write(p)
}

func (f *faultFile) Seek(offset int64, whence int) (int64, error) {
	if f.vfs.Crashed() {
		return 0, ErrCrashed
	}
	return f.inner.Seek(offset, whence)
}

func (f *faultFile) Close() error {
	// Closing is not a mutating operation; a crashed process's
	// descriptors are closed by the kernel regardless.
	return f.inner.Close()
}

func (f *faultFile) Sync() error {
	if fail, _ := f.vfs.step("sync"); fail {
		return fmt.Errorf("sync %s: %w", f.name, ErrCrashed)
	}
	return f.inner.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if fail, _ := f.vfs.step("truncate"); fail {
		return fmt.Errorf("truncate %s: %w", f.name, ErrCrashed)
	}
	return f.inner.Truncate(size)
}

// IsNotExist reports whether err means a VFS file was missing.
func IsNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

package exec

import (
	"fmt"
	"os"
	"path"
	"sync"
	"sync/atomic"

	"repro/internal/engine/storage"
	"repro/internal/engine/types"
)

// MemTracker is the per-query memory accountant shared by every blocking
// operator of one plan. Workers of a parallel plan share the same
// tracker, so all methods are atomic. A nil tracker is valid and means
// "unlimited": Grow always reports within-budget and Release is a no-op,
// which keeps the non-spilling fast path free of budget plumbing.
type MemTracker struct {
	budget int64
	used   atomic.Int64
	peak   atomic.Int64
}

// NewMemTracker returns a tracker with the given budget in bytes;
// budget <= 0 means unlimited.
func NewMemTracker(budget int64) *MemTracker {
	return &MemTracker{budget: budget}
}

// Grow adds n tracked bytes and reports whether usage is still within
// budget. Callers keep the memory either way — the contract is "grow,
// then spill if over", so peak usage exceeds the budget by at most one
// row (plus the fixed spill I/O buffers, themselves tracked).
func (m *MemTracker) Grow(n int64) bool {
	if m == nil {
		return true
	}
	u := m.used.Add(n)
	for {
		p := m.peak.Load()
		if u <= p || m.peak.CompareAndSwap(p, u) {
			break
		}
	}
	return m.budget <= 0 || u <= m.budget
}

// Release returns n tracked bytes.
func (m *MemTracker) Release(n int64) {
	if m != nil {
		m.used.Add(-n)
	}
}

// Used returns the currently tracked bytes.
func (m *MemTracker) Used() int64 {
	if m == nil {
		return 0
	}
	return m.used.Load()
}

// Peak returns the high-water mark of tracked bytes.
func (m *MemTracker) Peak() int64 {
	if m == nil {
		return 0
	}
	return m.peak.Load()
}

// rowBytes is the tracked in-memory cost of one row: a fixed slice
// overhead plus a per-value header and the value's record size. The
// numbers approximate Go heap layout; what matters is that the same
// accounting drives both the spill decision and the reported peak.
func rowBytes(row []types.Value) int64 {
	n := int64(24)
	for _, v := range row {
		n += 16 + int64(v.Size())
	}
	return n
}

// SpillStats aggregates spill activity across queries, the operator
// counterpart of storage.PoolStats.
type SpillStats struct {
	// Runs is the number of spill run files written.
	Runs int64 `json:"runs"`
	// SpillBytes is the total bytes written to run files.
	SpillBytes int64 `json:"spill_bytes"`
	// MergePasses counts intermediate merge passes — runs re-merged into
	// longer runs because the run count exceeded the merge fan-in.
	MergePasses int64 `json:"merge_passes"`
	// PeakMemBytes is the largest per-query peak of tracked operator
	// memory observed so far.
	PeakMemBytes int64 `json:"peak_mem_bytes"`
}

// SpillSink accumulates SpillStats. One sink lives on the engine and is
// shared by all queries; all methods are atomic.
type SpillSink struct {
	runs   atomic.Int64
	bytes  atomic.Int64
	passes atomic.Int64
	peak   atomic.Int64
}

// Stats snapshots the accumulated totals.
func (s *SpillSink) Stats() SpillStats {
	if s == nil {
		return SpillStats{}
	}
	return SpillStats{
		Runs:         s.runs.Load(),
		SpillBytes:   s.bytes.Load(),
		MergePasses:  s.passes.Load(),
		PeakMemBytes: s.peak.Load(),
	}
}

// Reset zeroes the totals (benchmarks isolate per-query deltas with it).
func (s *SpillSink) Reset() {
	if s == nil {
		return
	}
	s.runs.Store(0)
	s.bytes.Store(0)
	s.passes.Store(0)
	s.peak.Store(0)
}

func (s *SpillSink) addRun(bytes int64) {
	if s == nil {
		return
	}
	s.runs.Add(1)
	s.bytes.Add(bytes)
}

func (s *SpillSink) addMergePass() {
	if s == nil {
		return
	}
	s.passes.Add(1)
}

func (s *SpillSink) notePeak(p int64) {
	if s == nil {
		return
	}
	for {
		cur := s.peak.Load()
		if p <= cur || s.peak.CompareAndSwap(cur, p) {
			return
		}
	}
}

// spillDirSeq disambiguates per-query spill directories within one
// process.
var spillDirSeq atomic.Int64

// QueryCtx is the spill context of one query: the shared memory tracker,
// the VFS and per-query temp directory spill runs live in, and the
// registry of created files that backs the error-path cleanup. The
// planner creates one QueryCtx per compiled plan when a memory budget is
// configured and hands it to every blocking operator; a nil *QueryCtx
// selects the unbounded in-memory execution paths.
type QueryCtx struct {
	// Mem is the query's shared memory tracker.
	Mem *MemTracker

	vfs  storage.VFS
	dir  string
	sink *SpillSink

	mu       sync.Mutex
	dirMade  bool
	nextFile int64
	files    map[string]bool
}

// NewQueryCtx builds a spill context. vfs nil means the OS filesystem;
// baseDir empty places per-query directories under os.TempDir(). The
// sink may be nil (stats are then dropped).
func NewQueryCtx(budget int64, vfs storage.VFS, baseDir string, sink *SpillSink) *QueryCtx {
	if vfs == nil {
		vfs = storage.OSFS{}
	}
	if baseDir == "" {
		baseDir = path.Join(os.TempDir(), "xmlstore-spill")
	}
	dir := path.Join(baseDir, fmt.Sprintf("q%d-%d", os.Getpid(), spillDirSeq.Add(1)))
	return &QueryCtx{
		Mem:   NewMemTracker(budget),
		vfs:   vfs,
		dir:   dir,
		sink:  sink,
		files: map[string]bool{},
	}
}

// grow is the nil-safe Grow used by operators that may run without a
// context.
func (q *QueryCtx) grow(n int64) bool {
	if q == nil {
		return true
	}
	return q.Mem.Grow(n)
}

// release is the nil-safe Release.
func (q *QueryCtx) release(n int64) {
	if q != nil {
		q.Mem.Release(n)
	}
}

// notePeak folds the query's peak tracked memory into the sink.
// Operators call it from Close; the max-merge makes it idempotent.
func (q *QueryCtx) notePeak() {
	if q != nil {
		q.sink.notePeak(q.Mem.Peak())
	}
}

// newFileName reserves a fresh spill file name inside the per-query
// directory and records it for cleanup.
func (q *QueryCtx) newFileName(label string) (string, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.dirMade {
		if err := q.vfs.MkdirAll(q.dir); err != nil {
			return "", fmt.Errorf("exec: creating spill dir: %w", err)
		}
		q.dirMade = true
	}
	name := path.Join(q.dir, fmt.Sprintf("%s%d.spill", label, q.nextFile))
	q.nextFile++
	q.files[name] = true
	return name, nil
}

// removeFile deletes one spill file, tolerating prior removal.
func (q *QueryCtx) removeFile(name string) {
	q.mu.Lock()
	tracked := q.files[name]
	delete(q.files, name)
	q.mu.Unlock()
	if tracked {
		_ = q.vfs.Remove(name)
	}
}

// Cleanup removes every spill file still registered — the query-level
// backstop behind the operators' own Close/error-path removal. Errors
// are ignored: a file may already be gone, or the VFS may be a crashed
// FaultVFS.
func (q *QueryCtx) Cleanup() {
	if q == nil {
		return
	}
	q.mu.Lock()
	names := make([]string, 0, len(q.files))
	for name := range q.files {
		names = append(names, name)
	}
	q.files = map[string]bool{}
	q.mu.Unlock()
	for _, name := range names {
		_ = q.vfs.Remove(name)
	}
	q.notePeak()
}

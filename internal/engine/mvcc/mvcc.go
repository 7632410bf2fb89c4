// Package mvcc implements snapshot isolation for the engine: a
// transaction manager that hands out snapshot timestamps and detects
// first-committer-wins write-write conflicts, and per-table version
// stamps layered over the existing heap files, which readers consult
// per RID while they probe or scan the live heap and B+trees.
//
// The design keeps the heap as the single physical home of the *latest
// committed* state — exactly what PRs 1–8 store, log, checkpoint, and
// replay — and hangs the version history off to the side:
//
//   - every committed row carries a create timestamp (absent = born at
//     time 0, i.e. predating MVCC or recovered from a checkpoint);
//   - deleting or updating a row moves its previous image into an undo
//     list stamped with (born, died) timestamps.
//
// A snapshot at time S sees a heap row iff its create stamp is ≤ S, and
// an undo image iff born ≤ S < died. Because every mutation is applied
// under the manager's exclusive latch with a fresh commit timestamp, the
// version intervals of any one RID are disjoint, so at most one version
// of a RID is visible to any snapshot — including across RID reuse.
//
// Readers never block writers and vice versa in the long-running sense:
// a reader collects the rows it touches (a B+tree probe's matches, or a
// whole heap for a scan) under a brief shared latch and then runs
// latch-free over the collected rows, while commits serialize only
// against each other and against those reads.
package mvcc

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/engine/storage"
	"repro/internal/engine/types"
)

// ErrConflict reports a first-committer-wins write-write conflict: the
// committing transaction wrote a row or document whose version was
// replaced by another transaction that committed after this one's
// snapshot. The transaction is rolled back; retry it on a new snapshot.
var ErrConflict = errors.New("mvcc: write-write conflict")

// PseudoPage is the page number of the pseudo-RIDs a transaction assigns
// to its own uncommitted inserts. Pseudo rows live only in the session's
// overlay; commit replays the insert and resolves the pseudo slot to the
// real RID the heap assigned.
const PseudoPage = 1 << 30

// PseudoRID returns the pseudo-RID of the n'th row a transaction
// inserted.
func PseudoRID(n int) storage.RID {
	return storage.RID{Page: PseudoPage, Slot: int32(n)}
}

// IsPseudo reports whether rid names an uncommitted own-insert rather
// than a committed heap row.
func IsPseudo(rid storage.RID) bool { return rid.Page >= PseudoPage }

// RowKey is the conflict-journal key of one heap row version. Two
// transactions collide exactly when they write the same committed row
// version, which both necessarily name by the same RID.
func RowKey(table string, rid storage.RID) string {
	return fmt.Sprintf("r:%s:%d:%d", table, rid.Page, rid.Slot)
}

// DocKey is the conflict-journal key of one registered document, making
// whole-document operations (remove, splice) mutually conflicting even
// when they touch disjoint rows of the document.
func DocKey(docID int64) string { return fmt.Sprintf("d:%d", docID) }

// OpKind discriminates the deferred operations a transaction records.
type OpKind int

// The operation vocabulary. Row ops are physical: they name the row
// version the transaction saw (or its own pseudo-insert) and carry the
// full new image, so replaying the list in order against the
// committed state — on this store or on a twin — reproduces identical
// heaps. Document adds stay logical because their rows and document ID
// only exist once the commit-time loader run assigns them.
const (
	OpRowInsert OpKind = iota
	OpRowUpdate
	OpRowDelete
	OpDocAdd
)

// Op is one deferred mutation of a transaction, applied at commit.
type Op struct {
	Kind  OpKind
	Table string
	// RID targets the snapshot row version (update/delete); a pseudo
	// RID targets one of the transaction's own inserts instead.
	RID storage.RID
	// Row is the inserted row or the full post-update image.
	Row []types.Value
	// Docs is the document-add payload, owned by the store layer
	// (core passes []*xmltree.Document; the engine never inspects it).
	Docs any
}

// TxnManager coordinates snapshots, commits, and version garbage
// collection for one database.
type TxnManager struct {
	// latch is the database-wide structure latch: held shared while a
	// reader collects its rows or a checkpoint scans the heaps, held
	// exclusively while a commit (or direct operation) applies its
	// mutations and stamps versions. It is never held across query
	// execution, only across the collect/apply step itself.
	latch sync.RWMutex
	// commitMu serializes commit protocols and direct operations, which
	// also makes it the lock under which all WAL writing happens (the
	// wal.Writer is not safe for concurrent use).
	commitMu sync.Mutex

	mu            sync.Mutex
	lastCommitted uint64
	// active refcounts live snapshots per timestamp; its minimum floors
	// version garbage collection.
	active map[uint64]int
	// writes is the conflict journal: key → timestamp of the last
	// commit that wrote it. Pruned below the oldest active snapshot.
	writes map[string]uint64
	tables []*TableVersions

	// applyTS is the commit timestamp of the transaction currently
	// applying its mutations; non-zero only while latch is held
	// exclusively. The catalog's version hooks read it.
	applyTS uint64
	// pending collects the journal keys the hooks record during the
	// current apply.
	pending []string
}

// NewTxnManager returns an empty transaction manager; time starts at 0,
// so everything already stored is visible to every snapshot.
func NewTxnManager() *TxnManager {
	return &TxnManager{active: map[uint64]int{}, writes: map[string]uint64{}}
}

// Register creates the version sidecar for one table.
func (m *TxnManager) Register(table string) *TableVersions {
	tv := &TableVersions{mgr: m, name: table, created: map[storage.RID]uint64{}}
	m.mu.Lock()
	m.tables = append(m.tables, tv)
	m.mu.Unlock()
	return tv
}

// LastCommitted returns the newest commit timestamp.
func (m *TxnManager) LastCommitted() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastCommitted
}

// note records a journal key during an apply. Called from the version
// hooks with the latch held exclusively.
func (m *TxnManager) note(key string) { m.pending = append(m.pending, key) }

// Begin opens a transaction on a snapshot of the latest committed state.
func (m *TxnManager) Begin() *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.lastCommitted
	m.active[s]++
	return &Txn{mgr: m, snap: s, keys: map[string]struct{}{}}
}

// releaseLocked drops one reference to snapshot s. Caller holds m.mu.
func (m *TxnManager) releaseLocked(s uint64) {
	if n := m.active[s]; n > 1 {
		m.active[s] = n - 1
	} else {
		delete(m.active, s)
	}
}

// minSnapshotLocked returns the garbage-collection floor: no snapshot at
// or below it will ever be opened again, so versions dead by then are
// unreachable. Caller holds m.mu.
func (m *TxnManager) minSnapshotLocked() uint64 {
	min := m.lastCommitted
	for s := range m.active {
		if s < min {
			min = s
		}
	}
	return min
}

// gc prunes version and journal state no live or future snapshot can
// observe.
func (m *TxnManager) gc(min uint64) {
	m.latch.Lock()
	for _, tv := range m.tables {
		tv.pruneLocked(min)
	}
	m.latch.Unlock()
	m.mu.Lock()
	for k, ts := range m.writes {
		if ts <= min {
			delete(m.writes, k)
		}
	}
	m.mu.Unlock()
}

// RunDirect executes a single-shot mutation — the legacy Store paths
// (Load, AddDocuments, Exec, ...) on an MVCC store — as its own
// committed transaction: exclusive latch, fresh commit timestamp, hooks
// stamping versions and journaling keys. fn runs with every concurrent
// snapshot read blocked, so its heap mutations are atomic with
// respect to snapshots.
func (m *TxnManager) RunDirect(fn func(commitTS uint64) error) error {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	m.mu.Lock()
	commitTS := m.lastCommitted + 1
	m.mu.Unlock()

	m.latch.Lock()
	m.applyTS = commitTS
	m.pending = m.pending[:0]
	err := fn(commitTS)
	m.applyTS = 0
	keys := append([]string(nil), m.pending...)
	m.latch.Unlock()

	if err != nil && len(keys) == 0 {
		// Failed before mutating anything: the timestamp was never
		// observed, so it can be handed out again.
		return err
	}
	m.finishCommit(commitTS, keys, nil)
	return err
}

// Quiesce runs fn with commits and direct operations blocked — the
// checkpoint path, whose snapshot must capture a commit boundary.
func (m *TxnManager) Quiesce(fn func() error) error {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	return fn()
}

// Exclusive runs fn with both commits and snapshot reads blocked —
// DDL such as index builds on a live store.
func (m *TxnManager) Exclusive(fn func() error) error {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	m.latch.Lock()
	defer m.latch.Unlock()
	return fn()
}

// finishCommit publishes a commit: journal keys, the new timestamp, and
// a garbage-collection pass. extra carries op-time keys of the
// committing transaction (snapshot RIDs and document keys) on top of the
// hook-recorded ones.
func (m *TxnManager) finishCommit(commitTS uint64, keys []string, extra map[string]struct{}) {
	m.mu.Lock()
	for _, k := range keys {
		m.writes[k] = commitTS
	}
	for k := range extra {
		m.writes[k] = commitTS
	}
	m.lastCommitted = commitTS
	min := m.minSnapshotLocked()
	m.mu.Unlock()
	m.gc(min)
}

// Txn is one transaction: a snapshot timestamp plus the write keys its
// operations touched, checked first-committer-wins at commit.
type Txn struct {
	mgr  *TxnManager
	snap uint64
	keys map[string]struct{}
	done bool
}

// Snapshot returns the transaction's snapshot timestamp.
func (t *Txn) Snapshot() uint64 { return t.snap }

// Done reports whether the transaction has committed or rolled back.
func (t *Txn) Done() bool { return t.done }

// Touch records a write key for the commit-time conflict check.
func (t *Txn) Touch(key string) { t.keys[key] = struct{}{} }

// Rollback releases the snapshot without applying anything. Safe to call
// after Commit (it becomes a no-op), so callers can defer it.
func (t *Txn) Rollback() {
	if t.done {
		return
	}
	t.done = true
	m := t.mgr
	m.mu.Lock()
	m.releaseLocked(t.snap)
	min := m.minSnapshotLocked()
	m.mu.Unlock()
	// A closing reader may have been the snapshot pinning old versions.
	m.gc(min)
}

// Commit runs the commit protocol: first-committer-wins conflict check
// against the journal, then apply(commitTS) under the exclusive latch
// (the caller replays its operation log and writes its WAL batch there),
// then journal publication and version GC. A nil apply releases the
// snapshot without consuming a timestamp — the read-only commit.
//
// On ErrConflict the transaction is rolled back and the store is
// untouched. An apply error after mutations have landed leaves the store
// poisoned (exactly like a mid-statement error on the single-user
// paths); the burned timestamp is still published so no snapshot can
// observe a half-applied state as "latest committed".
func (t *Txn) Commit(apply func(commitTS uint64) error) error {
	if t.done {
		return errors.New("mvcc: transaction already finished")
	}
	m := t.mgr
	m.commitMu.Lock()
	defer m.commitMu.Unlock()

	m.mu.Lock()
	for k := range t.keys {
		if ts, ok := m.writes[k]; ok && ts > t.snap {
			m.releaseLocked(t.snap)
			min := m.minSnapshotLocked()
			m.mu.Unlock()
			t.done = true
			m.gc(min)
			return fmt.Errorf("%w: %s committed at %d, snapshot is %d", ErrConflict, k, ts, t.snap)
		}
	}
	commitTS := m.lastCommitted + 1
	m.mu.Unlock()

	if apply == nil {
		// Read-only: release the snapshot, consume no timestamp.
		m.mu.Lock()
		m.releaseLocked(t.snap)
		min := m.minSnapshotLocked()
		m.mu.Unlock()
		t.done = true
		m.gc(min)
		return nil
	}

	m.latch.Lock()
	m.applyTS = commitTS
	m.pending = m.pending[:0]
	err := apply(commitTS)
	m.applyTS = 0
	keys := append([]string(nil), m.pending...)
	m.latch.Unlock()

	m.mu.Lock()
	m.releaseLocked(t.snap)
	m.mu.Unlock()
	t.done = true

	if err != nil && len(keys) == 0 {
		m.mu.Lock()
		min := m.minSnapshotLocked()
		m.mu.Unlock()
		m.gc(min)
		return err
	}
	m.finishCommit(commitTS, keys, t.keys)
	return err
}

// undoEntry is one superseded row image: visible to snapshots S with
// born ≤ S < died.
type undoEntry struct {
	rid        storage.RID
	row        []types.Value
	born, died uint64
}

// TableVersions is the per-table version sidecar: create stamps for
// current heap rows and the undo list of superseded images. All access
// happens under the manager's latch (shared for reads, exclusive for the
// hooks), so it needs no lock of its own.
type TableVersions struct {
	mgr     *TxnManager
	name    string
	created map[storage.RID]uint64
	undo    []undoEntry
}

// NoteInsert stamps a freshly inserted heap row with the applying
// transaction's timestamp. Outside an apply (recovery replay, non-MVCC
// paths that never see a sidecar anyway) it is a no-op: the row is born
// at time 0 and visible to everyone, which is exactly right for
// recovered state.
func (v *TableVersions) NoteInsert(rid storage.RID) {
	ts := v.mgr.applyTS
	if ts == 0 {
		return
	}
	v.created[rid] = ts
	v.mgr.note(RowKey(v.name, rid))
}

// NoteDelete retires the row version at rid, preserving its image for
// older snapshots. A row born and deleted by the same transaction leaves
// no trace — no snapshot can ever see it.
func (v *TableVersions) NoteDelete(rid storage.RID, old []types.Value) {
	ts := v.mgr.applyTS
	if ts == 0 {
		return
	}
	born := v.created[rid]
	delete(v.created, rid)
	if born < ts {
		v.undo = append(v.undo, undoEntry{rid, append([]types.Value(nil), old...), born, ts})
	}
	v.mgr.note(RowKey(v.name, rid))
}

// NoteUpdate retires the pre-image at rid and stamps the new version at
// newRID (which equals rid when the heap updated in place).
func (v *TableVersions) NoteUpdate(rid storage.RID, old []types.Value, newRID storage.RID) {
	ts := v.mgr.applyTS
	if ts == 0 {
		return
	}
	born := v.created[rid]
	delete(v.created, rid)
	if born < ts {
		v.undo = append(v.undo, undoEntry{rid, append([]types.Value(nil), old...), born, ts})
	}
	v.created[newRID] = ts
	v.mgr.note(RowKey(v.name, rid))
	if newRID != rid {
		v.mgr.note(RowKey(v.name, newRID))
	}
}

// pruneLocked drops versions and stamps no snapshot above min can
// distinguish from "born at 0". Caller holds the latch exclusively.
func (v *TableVersions) pruneLocked(min uint64) {
	kept := v.undo[:0]
	for _, u := range v.undo {
		if u.died > min {
			kept = append(kept, u)
		}
	}
	for i := len(kept); i < len(v.undo); i++ {
		v.undo[i] = undoEntry{}
	}
	v.undo = kept
	for rid, ts := range v.created {
		if ts <= min {
			delete(v.created, rid)
		}
	}
}

// Versions reports the live sidecar sizes (create stamps, undo images) —
// observability for the GC tests.
func (m *TxnManager) Versions() (created, undo int) {
	m.latch.RLock()
	defer m.latch.RUnlock()
	for _, tv := range m.tables {
		created += len(tv.created)
		undo += len(tv.undo)
	}
	return
}

// VRow is one visible row version: the RID names the version
// (committed heap/undo RID, or a pseudo-RID for a session's own inserts)
// and Row is its image. Rows are aliased, never copied — heap mutation
// always installs fresh row slices, so a collected image stays immutable
// after the latch is released.
type VRow struct {
	RID storage.RID
	Row []types.Value
}

// Materialize collects the versions of one table visible at snapshot
// snap, in RID order: the heap rows scan yields whose create stamp is
// ≤ snap, merged with the undo images whose (born, died) interval
// contains snap and that match accepts (nil accepts all). scan must
// iterate in RID order: a whole heap (storage.HeapFile.Scan) with a nil
// match, or the heap rows of a B+tree probe with match testing the same
// key, so the undo images stand in for exactly the probed versions the
// snapshot cannot see. The shared latch is held only while collecting.
//
// A nil sidecar means the table is unversioned (a store that predates
// EnableMVCC, or the non-MVCC configuration); every row is visible.
func (m *TxnManager) Materialize(tv *TableVersions, snap uint64, scan func(func(storage.RID, []types.Value) error) error, match func([]types.Value) bool) ([]VRow, error) {
	m.latch.RLock()
	defer m.latch.RUnlock()
	var out []VRow
	if tv == nil {
		err := scan(func(rid storage.RID, row []types.Value) error {
			out = append(out, VRow{rid, row})
			return nil
		})
		return out, err
	}
	var old []VRow
	for _, u := range tv.undo {
		if u.born <= snap && snap < u.died && (match == nil || match(u.row)) {
			old = append(old, VRow{u.rid, u.row})
		}
	}
	slices.SortFunc(old, func(a, b VRow) int { return storage.CompareRID(a.RID, b.RID) })
	i := 0
	err := scan(func(rid storage.RID, row []types.Value) error {
		for i < len(old) && storage.CompareRID(rid, old[i].RID) >= 0 {
			out = append(out, old[i])
			i++
		}
		if born, ok := tv.created[rid]; !ok || born <= snap {
			out = append(out, VRow{rid, row})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return append(out, old[i:]...), nil
}

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
// A reader's access paths filter the RIDs they read from the live heap
// and indexes through Filter, under the shared latch for the whole
// statement: commits wait for the statements in flight, never for a
// snapshot's lifetime.
package mvcc

import (
	"errors"
	"fmt"
	"math"
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
	// latch is the database-wide structure latch: held shared for one
	// snapshot statement (Read), exclusively while a commit or direct
	// operation applies and stamps versions, or version GC prunes.
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
	pruned uint64 // the floor of the last gc

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

// Begin opens a transaction on a snapshot of the latest committed state.
func (m *TxnManager) Begin() *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.lastCommitted
	m.active[s]++
	return &Txn{mgr: m, snap: s, keys: map[string]struct{}{}, writes: map[string]*overlay{}}
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
// observe. The floor never falls and later versions lie above it, so a
// floor already pruned is skipped without the exclusive latch, which
// would wait for every statement in flight.
func (m *TxnManager) gc(min uint64) {
	m.mu.Lock()
	if min <= m.pruned {
		m.mu.Unlock()
		return
	}
	m.pruned = min
	for k, ts := range m.writes {
		if ts <= min {
			delete(m.writes, k)
		}
	}
	m.mu.Unlock()
	m.latch.Lock()
	for _, tv := range m.tables {
		tv.pruneLocked(min)
	}
	m.latch.Unlock()
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
	keys, err := m.apply(commitTS, fn)
	if err != nil && len(keys) == 0 {
		// Failed before mutating anything: the timestamp was never
		// observed, so it can be handed out again.
		return err
	}
	m.finishCommit(commitTS, keys, nil)
	return err
}

// apply runs fn as the commit at commitTS under the exclusive latch and
// returns the journal keys the version hooks recorded.
func (m *TxnManager) apply(commitTS uint64, fn func(commitTS uint64) error) ([]string, error) {
	m.latch.Lock()
	defer m.latch.Unlock()
	m.applyTS = commitTS
	m.pending = m.pending[:0]
	err := fn(commitTS)
	m.applyTS = 0
	return append([]string(nil), m.pending...), err
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
	mgr    *TxnManager
	snap   uint64
	keys   map[string]struct{}
	writes map[string]*overlay // uncommitted row writes by table (Write)
	nins   int
	done   bool
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
			m.mu.Unlock()
			t.Rollback()
			return fmt.Errorf("%w: %s committed at %d, snapshot is %d", ErrConflict, k, ts, t.snap)
		}
	}
	commitTS := m.lastCommitted + 1
	m.mu.Unlock()
	if apply == nil {
		// Read-only: release the snapshot, consume no timestamp.
		t.Rollback()
		return nil
	}
	keys, err := m.apply(commitTS, apply)
	if err != nil && len(keys) == 0 {
		t.Rollback()
		return err
	}
	m.mu.Lock()
	m.releaseLocked(t.snap)
	m.mu.Unlock()
	t.done = true
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
	newest  uint64 // the last timestamp that stamped or retired a version
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
	v.note(rid)
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
	v.note(rid)
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
	v.note(rid)
	if newRID != rid {
		v.note(newRID)
	}
}

// note records the journal key of rid during an apply and marks the
// table changed at its timestamp. The latch is held exclusively.
func (v *TableVersions) note(rid storage.RID) {
	v.newest = v.mgr.applyTS
	v.mgr.pending = append(v.mgr.pending, RowKey(v.name, rid))
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
// (committed heap/undo RID, or a pseudo-RID for a transaction's own
// inserts) and Row is its image. Rows are aliased, never copied — heap
// mutation always installs fresh row slices, so an image stays
// immutable once recorded.
type VRow struct {
	RID storage.RID
	Row []types.Value
}

// End orders after every heap and pseudo RID.
var End = storage.RID{Page: math.MaxInt32, Slot: math.MaxInt32}

// overlay is a transaction's writes to one table: each written row's
// new image (nil: deleted) by snapshot RID, and its own inserts.
type overlay struct {
	written  map[storage.RID][]types.Value
	inserted []VRow
}

// Write layers a row op over the snapshot for the transaction's later
// reads and returns it as recorded: an insert gets the next pseudo RID,
// an update or delete of a committed row touches that row's key.
func (t *Txn) Write(op Op) Op {
	ov := t.writes[op.Table]
	if ov == nil {
		ov = &overlay{written: map[storage.RID][]types.Value{}}
		t.writes[op.Table] = ov
	}
	switch op.Kind {
	case OpRowInsert:
		op.RID = PseudoRID(t.nins)
		t.nins++
		ov.inserted = append(ov.inserted, VRow{RID: op.RID, Row: op.Row})
		return op
	case OpRowUpdate:
		ov.written[op.RID] = op.Row
	case OpRowDelete:
		ov.written[op.RID] = nil
	}
	if !IsPseudo(op.RID) {
		t.Touch(RowKey(op.Table, op.RID))
	}
	return op
}

// Read runs fn — one snapshot statement, planning to drain — under the
// shared latch, so the structures commits change hold still. fn must not
// call Read again: a nested RLock behind a waiting commit deadlocks.
func (m *TxnManager) Read(fn func() error) error {
	m.latch.RLock()
	defer m.latch.RUnlock()
	return fn()
}

// Filter returns the snapshot filter of one access to the table of tv:
// a B+tree probe for rows whose column col equals key, or with col < 0
// a heap scan or fragment-index candidates. It is nil (read the table as
// stored) for a nil transaction, an unversioned table, or one with no
// version newer than the snapshot nor written by the transaction.
func (t *Txn) Filter(tv *TableVersions, col int, key types.Value) *Filter {
	if t == nil || tv == nil {
		return nil
	}
	var ov overlay
	if w := t.writes[tv.name]; w != nil {
		ov = *w
	} else if tv.newest <= t.snap {
		return nil
	}
	f := &Filter{tv: tv, snap: t.snap, written: ov.written}
	add := func(rid storage.RID, row []types.Value) {
		if row != nil && (col < 0 || types.Equal(row[col], key)) {
			f.extra = append(f.extra, VRow{rid, row})
		}
	}
	for _, u := range tv.undo {
		if _, w := ov.written[u.rid]; !w && u.born <= t.snap && t.snap < u.died {
			add(u.rid, u.row)
		}
	}
	for rid, row := range ov.written {
		if !IsPseudo(rid) {
			add(rid, row)
		}
	}
	slices.SortFunc(f.extra, func(a, b VRow) int { return storage.CompareRID(a.RID, b.RID) })
	for _, vr := range ov.inserted {
		if row, w := ov.written[vr.RID]; w {
			vr.Row = row
		}
		add(vr.RID, vr.Row)
	}
	return f
}

// Filter is snapshot visibility over the RIDs an access reads in RID
// order: it keeps the heap RIDs Keep accepts and merges in, before each
// RID and at End, what Pop yields — the matching undo images the
// snapshot sees and rows the transaction updated, then its own inserts.
// A nil Filter keeps every RID and adds nothing.
type Filter struct {
	tv      *TableVersions
	snap    uint64
	written map[storage.RID][]types.Value // the transaction's, by RID
	extra   []VRow                        // RID order; own inserts last
	next    int
}

// Keep reports whether the heap row at rid is born by the snapshot and
// not written by the transaction (Pop yields its new image).
func (f *Filter) Keep(rid storage.RID) bool {
	if f == nil {
		return true
	}
	born, ok := f.tv.created[rid]
	_, w := f.written[rid]
	return (!ok || born <= f.snap) && !w
}

// Pop writes the next added row ordered before the RID before into out,
// narrowed to the stored columns cols (nil: all); ok is false if none.
func (f *Filter) Pop(before storage.RID, cols []int, out []types.Value) (rid storage.RID, ok bool) {
	if f == nil || f.next == len(f.extra) || storage.CompareRID(f.extra[f.next].RID, before) >= 0 {
		return storage.RID{}, false
	}
	vr := f.extra[f.next]
	f.next++
	if cols == nil {
		copy(out, vr.Row)
	}
	for k, j := range cols {
		out[k] = vr.Row[j]
	}
	return vr.RID, true
}

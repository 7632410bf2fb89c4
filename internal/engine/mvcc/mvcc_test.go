package mvcc

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/engine/storage"
	"repro/internal/engine/types"
)

// fakeHeap is a minimal RID-ordered heap standing in for a HeapFile.
type fakeHeap struct {
	rows map[storage.RID][]types.Value
}

func newFakeHeap() *fakeHeap { return &fakeHeap{rows: map[storage.RID][]types.Value{}} }

func (h *fakeHeap) scan(fn func(storage.RID, []types.Value) error) error {
	var rids []storage.RID
	for rid := range h.rows {
		rids = append(rids, rid)
	}
	for i := 0; i < len(rids); i++ {
		for j := i + 1; j < len(rids); j++ {
			if storage.CompareRID(rids[j], rids[i]) < 0 {
				rids[i], rids[j] = rids[j], rids[i]
			}
		}
	}
	for _, rid := range rids {
		if err := fn(rid, h.rows[rid]); err != nil {
			return err
		}
	}
	return nil
}

func rid(page, slot int32) storage.RID { return storage.RID{Page: page, Slot: slot} }

func row(v int64) []types.Value { return []types.Value{types.NewInt(v)} }

// insert applies a direct insert through the hook discipline.
func (h *fakeHeap) insert(tv *TableVersions, r storage.RID, vals []types.Value) {
	h.rows[r] = vals
	tv.NoteInsert(r)
}

func (h *fakeHeap) delete(tv *TableVersions, r storage.RID) {
	old := h.rows[r]
	delete(h.rows, r)
	tv.NoteDelete(r, old)
}

func (h *fakeHeap) update(tv *TableVersions, r, newRID storage.RID, vals []types.Value) {
	old := h.rows[r]
	delete(h.rows, r)
	h.rows[newRID] = vals
	tv.NoteUpdate(r, old, newRID)
}

// viewInts reads h through the visibility filter of tv at snap the way
// an access operator reads a heap range, and returns the first column
// of each row it yields.
func viewInts(t *testing.T, m *TxnManager, tv *TableVersions, h *fakeHeap, snap uint64) []int64 {
	t.Helper()
	var out []int64
	err := m.Read(func() error {
		f := (&Txn{mgr: m, snap: snap}).Filter(tv, -1, types.Null)
		return filterScan(f, h, -1, types.Null, func(_ storage.RID, row []types.Value) {
			out = append(out, row[0].Int())
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// filterScan merges h's rows whose column col equals key (col < 0: all
// rows) with what f, built for the same access, adds, in RID order, as
// an operator does.
func filterScan(f *Filter, h *fakeHeap, col int, key types.Value, fn func(storage.RID, []types.Value)) error {
	pop := func(at storage.RID) {
		for {
			row := make([]types.Value, 1)
			rid, ok := f.Pop(at, nil, row)
			if !ok {
				return
			}
			fn(rid, row)
		}
	}
	err := h.scan(func(rid storage.RID, row []types.Value) error {
		pop(rid)
		if (col < 0 || types.Equal(row[col], key)) && f.Keep(rid) {
			fn(rid, row)
		}
		return nil
	})
	pop(End)
	return err
}

func eqInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestVisibilityAcrossCommits(t *testing.T) {
	m := NewTxnManager()
	tv := m.Register("t")
	h := newFakeHeap()

	// Pre-MVCC state: rows born at time 0.
	h.rows[rid(0, 0)] = row(1)
	h.rows[rid(0, 1)] = row(2)

	reader := m.Begin() // snapshot 0
	if err := m.RunDirect(func(uint64) error {
		h.insert(tv, rid(0, 2), row(3))
		h.update(tv, rid(0, 1), rid(0, 1), row(20))
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// The old snapshot still sees the original state.
	if got := viewInts(t, m, tv, h, reader.Snapshot()); !eqInts(got, []int64{1, 2}) {
		t.Fatalf("snapshot 0 sees %v, want [1 2]", got)
	}
	// A fresh snapshot sees the committed mutation.
	if got := viewInts(t, m, tv, h, m.LastCommitted()); !eqInts(got, []int64{1, 20, 3}) {
		t.Fatalf("snapshot 1 sees %v, want [1 20 3]", got)
	}
	reader.Rollback()
}

func TestVisibilityRowMoveAndDelete(t *testing.T) {
	m := NewTxnManager()
	tv := m.Register("t")
	h := newFakeHeap()
	h.rows[rid(0, 0)] = row(1)

	reader := m.Begin()
	if err := m.RunDirect(func(uint64) error {
		// Update that moves the row to a new page, and a delete.
		h.update(tv, rid(0, 0), rid(1, 0), row(10))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := viewInts(t, m, tv, h, reader.Snapshot()); !eqInts(got, []int64{1}) {
		t.Fatalf("old snapshot sees %v, want [1]", got)
	}
	if got := viewInts(t, m, tv, h, m.LastCommitted()); !eqInts(got, []int64{10}) {
		t.Fatalf("new snapshot sees %v, want [10]", got)
	}

	if err := m.RunDirect(func(uint64) error {
		h.delete(tv, rid(1, 0))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := viewInts(t, m, tv, h, reader.Snapshot()); !eqInts(got, []int64{1}) {
		t.Fatalf("old snapshot sees %v after delete, want [1]", got)
	}
	if got := viewInts(t, m, tv, h, m.LastCommitted()); len(got) != 0 {
		t.Fatalf("new snapshot sees %v, want empty", got)
	}
	reader.Rollback()
}

func TestFirstCommitterWins(t *testing.T) {
	m := NewTxnManager()
	tv := m.Register("t")
	h := newFakeHeap()
	h.rows[rid(0, 0)] = row(1)
	key := RowKey("t", rid(0, 0))

	t1 := m.Begin()
	t2 := m.Begin()
	t1.Touch(key)
	t2.Touch(key)

	if err := t1.Commit(func(uint64) error {
		h.update(tv, rid(0, 0), rid(0, 0), row(10))
		return nil
	}); err != nil {
		t.Fatalf("first committer: %v", err)
	}
	err := t2.Commit(func(uint64) error {
		t.Fatal("conflicting apply must not run")
		return nil
	})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("second committer got %v, want ErrConflict", err)
	}
	if !t2.Done() {
		t.Fatal("conflicting txn not finished")
	}
	if got := viewInts(t, m, tv, h, m.LastCommitted()); !eqInts(got, []int64{10}) {
		t.Fatalf("state after conflict: %v, want [10]", got)
	}
}

func TestNoConflictOnDisjointKeys(t *testing.T) {
	m := NewTxnManager()
	tv := m.Register("t")
	h := newFakeHeap()
	h.rows[rid(0, 0)] = row(1)
	h.rows[rid(0, 1)] = row(2)

	t1 := m.Begin()
	t2 := m.Begin()
	t1.Touch(RowKey("t", rid(0, 0)))
	t2.Touch(RowKey("t", rid(0, 1)))

	if err := t1.Commit(func(uint64) error {
		h.update(tv, rid(0, 0), rid(0, 0), row(10))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(func(uint64) error {
		h.update(tv, rid(0, 1), rid(0, 1), row(20))
		return nil
	}); err != nil {
		t.Fatalf("disjoint writer conflicted: %v", err)
	}
	if got := viewInts(t, m, tv, h, m.LastCommitted()); !eqInts(got, []int64{10, 20}) {
		t.Fatalf("state %v, want [10 20]", got)
	}
}

func TestConflictAgainstHookJournaledDirectOp(t *testing.T) {
	m := NewTxnManager()
	tv := m.Register("t")
	h := newFakeHeap()
	h.rows[rid(0, 0)] = row(1)

	txn := m.Begin()
	txn.Touch(RowKey("t", rid(0, 0)))
	// A direct operation (no Touch calls — only the hooks journal it)
	// rewrites the row after txn's snapshot.
	if err := m.RunDirect(func(uint64) error {
		h.update(tv, rid(0, 0), rid(0, 0), row(99))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	err := txn.Commit(func(uint64) error { return nil })
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("got %v, want ErrConflict against direct op", err)
	}
}

func TestReadOnlyCommitBurnsNoTimestamp(t *testing.T) {
	m := NewTxnManager()
	txn := m.Begin()
	if err := txn.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if m.LastCommitted() != 0 {
		t.Fatalf("read-only commit advanced time to %d", m.LastCommitted())
	}
	if err := txn.Commit(nil); err == nil {
		t.Fatal("double commit succeeded")
	}
}

func TestGCPrunesVersionsAndJournal(t *testing.T) {
	m := NewTxnManager()
	tv := m.Register("t")
	h := newFakeHeap()
	h.rows[rid(0, 0)] = row(1)

	reader := m.Begin() // pins snapshot 0
	for i := 0; i < 5; i++ {
		if err := m.RunDirect(func(uint64) error {
			h.update(tv, rid(0, 0), rid(0, 0), row(int64(10+i)))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	created, undo := m.Versions()
	if undo == 0 || created == 0 {
		t.Fatalf("expected live versions while a snapshot is pinned, got created=%d undo=%d", created, undo)
	}
	// The pinned snapshot still reads the original image.
	if got := viewInts(t, m, tv, h, reader.Snapshot()); !eqInts(got, []int64{1}) {
		t.Fatalf("pinned snapshot sees %v, want [1]", got)
	}
	reader.Rollback()
	created, undo = m.Versions()
	if created != 0 || undo != 0 {
		t.Fatalf("GC left created=%d undo=%d after last snapshot closed", created, undo)
	}
	m.mu.Lock()
	nwrites := len(m.writes)
	m.mu.Unlock()
	if nwrites != 0 {
		t.Fatalf("GC left %d journal entries", nwrites)
	}
}

func TestRIDReuseDoesNotLeakAcrossSnapshots(t *testing.T) {
	m := NewTxnManager()
	tv := m.Register("t")
	h := newFakeHeap()
	h.rows[rid(0, 0)] = row(1)

	reader := m.Begin()
	// Delete the row, then a later transaction reuses the same RID.
	if err := m.RunDirect(func(uint64) error {
		h.delete(tv, rid(0, 0))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.RunDirect(func(uint64) error {
		h.insert(tv, rid(0, 0), row(42))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// The old snapshot must see exactly the original image, not the
	// reused slot's new row.
	if got := viewInts(t, m, tv, h, reader.Snapshot()); !eqInts(got, []int64{1}) {
		t.Fatalf("old snapshot sees %v across RID reuse, want [1]", got)
	}
	if got := viewInts(t, m, tv, h, m.LastCommitted()); !eqInts(got, []int64{42}) {
		t.Fatalf("new snapshot sees %v, want [42]", got)
	}
	reader.Rollback()
}

func TestMaterializeMergeOrder(t *testing.T) {
	m := NewTxnManager()
	tv := m.Register("t")
	h := newFakeHeap()
	for i := int32(0); i < 4; i++ {
		h.rows[rid(0, i)] = row(int64(i))
	}
	reader := m.Begin()
	if err := m.RunDirect(func(uint64) error {
		h.delete(tv, rid(0, 1))
		h.update(tv, rid(0, 3), rid(1, 0), row(30)) // move to later page
		h.insert(tv, rid(0, 1), row(99))            // reuse the freed slot
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// The old snapshot's view preserves the original RID order exactly.
	if got := viewInts(t, m, tv, h, reader.Snapshot()); !eqInts(got, []int64{0, 1, 2, 3}) {
		t.Fatalf("old view order %v, want [0 1 2 3]", got)
	}
	if got := viewInts(t, m, tv, h, m.LastCommitted()); !eqInts(got, []int64{0, 99, 2, 30}) {
		t.Fatalf("new view order %v, want [0 99 2 30]", got)
	}
	reader.Rollback()
}

func TestFailedApplyWithoutMutationKeepsTimestamp(t *testing.T) {
	m := NewTxnManager()
	boom := fmt.Errorf("boom")
	err := m.RunDirect(func(uint64) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
	if m.LastCommitted() != 0 {
		t.Fatalf("failed no-op apply burned timestamp: %d", m.LastCommitted())
	}
	txn := m.Begin()
	err = txn.Commit(func(uint64) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
	if m.LastCommitted() != 0 {
		t.Fatalf("failed no-op commit burned timestamp: %d", m.LastCommitted())
	}
}

func TestPseudoRIDs(t *testing.T) {
	p := PseudoRID(7)
	if !IsPseudo(p) {
		t.Fatal("pseudo rid not recognized")
	}
	if IsPseudo(rid(0, 7)) {
		t.Fatal("heap rid misclassified as pseudo")
	}
}

// TestFilterOverlayAndProbe holds the filter to a transaction's own
// writes over its snapshot, for a whole-table access and for probes by
// key: updated rows carry their new image and join the key they moved
// onto, deleted ones vanish, and own inserts come last.
func TestFilterOverlayAndProbe(t *testing.T) {
	m := NewTxnManager()
	tv := m.Register("t")
	h := newFakeHeap()
	for i := int32(0); i < 3; i++ {
		h.rows[rid(0, i)] = row(int64(i + 1))
	}
	txn := m.Begin()
	if err := m.RunDirect(func(uint64) error {
		h.update(tv, rid(0, 1), rid(0, 1), row(20))
		h.delete(tv, rid(0, 2))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	txn.Write(Op{Kind: OpRowUpdate, Table: "t", RID: rid(0, 0), Row: row(2)})
	own := txn.Write(Op{Kind: OpRowInsert, Table: "t", Row: row(2)})
	gone := txn.Write(Op{Kind: OpRowInsert, Table: "t", Row: row(7)})
	txn.Write(Op{Kind: OpRowDelete, Table: "t", RID: gone.RID})
	if own.RID != PseudoRID(0) || gone.RID != PseudoRID(1) {
		t.Fatalf("own inserts got %v and %v", own.RID, gone.RID)
	}

	read := func(col int, key types.Value) (rids []storage.RID, vals []int64) {
		t.Helper()
		err := m.Read(func() error {
			return filterScan(txn.Filter(tv, col, key), h, col, key, func(r storage.RID, row []types.Value) {
				rids = append(rids, r)
				vals = append(vals, row[0].Int())
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return rids, vals
	}
	if _, got := read(-1, types.Null); !eqInts(got, []int64{2, 2, 3, 2}) {
		t.Fatalf("scan sees %v, want [2 2 3 2]", got)
	}
	rids, got := read(0, types.NewInt(2))
	if !eqInts(got, []int64{2, 2, 2}) || !slices.Equal(rids, []storage.RID{rid(0, 0), rid(0, 1), PseudoRID(0)}) {
		t.Fatalf("probe of 2 sees %v at %v, want [2 2 2] at (0,0) (0,1) and the own insert", got, rids)
	}
	for _, k := range []int64{1, 20, 7} {
		if _, got := read(0, types.NewInt(k)); len(got) != 0 {
			t.Fatalf("probe of %d sees %v, want nothing", k, got)
		}
	}
	txn.Rollback()
	if f := m.Begin().Filter(tv, -1, types.Null); f != nil {
		t.Fatal("a snapshot after the last commit, with no writes, still filters")
	}
}

// TestFilterAfterEachKindOfCommit holds the filter's plain-store
// shortcut to the sidecar: a commit of only an insert, only an update or
// only a delete each makes an older snapshot filter the table again.
func TestFilterAfterEachKindOfCommit(t *testing.T) {
	for _, tc := range []struct {
		name string
		do   func(tv *TableVersions, h *fakeHeap)
		want []int64
	}{
		{"insert", func(tv *TableVersions, h *fakeHeap) { h.insert(tv, rid(0, 2), row(3)) }, []int64{1, 2, 3}},
		{"update", func(tv *TableVersions, h *fakeHeap) { h.update(tv, rid(0, 1), rid(0, 1), row(20)) }, []int64{1, 20}},
		{"delete", func(tv *TableVersions, h *fakeHeap) { h.delete(tv, rid(0, 1)) }, []int64{1}},
	} {
		m := NewTxnManager()
		tv := m.Register("t")
		h := newFakeHeap()
		h.rows[rid(0, 0)] = row(1)
		h.rows[rid(0, 1)] = row(2)
		reader := m.Begin()
		if err := m.RunDirect(func(uint64) error { tc.do(tv, h); return nil }); err != nil {
			t.Fatal(err)
		}
		if got := viewInts(t, m, tv, h, reader.Snapshot()); !eqInts(got, []int64{1, 2}) {
			t.Errorf("%s: the older snapshot sees %v, want [1 2]", tc.name, got)
		}
		if got := viewInts(t, m, tv, h, m.LastCommitted()); !eqInts(got, tc.want) {
			t.Errorf("%s: the new snapshot sees %v, want %v", tc.name, got, tc.want)
		}
		reader.Rollback()
	}
}

// TestRollbackSkipsLatchWithNothingToPrune holds a read-only rollback
// off the exclusive latch when the GC floor has nothing new to prune: a
// statement in flight holds the shared latch, and a rollback waiting for
// the exclusive one would stall every session behind that statement.
func TestRollbackSkipsLatchWithNothingToPrune(t *testing.T) {
	m := NewTxnManager()
	tv := m.Register("t")
	h := newFakeHeap()
	if err := m.RunDirect(func(uint64) error { h.insert(tv, rid(0, 0), row(1)); return nil }); err != nil {
		t.Fatal(err)
	}
	reader := m.Begin()
	done := make(chan struct{})
	err := m.Read(func() error {
		go func() {
			reader.Rollback()
			close(done)
		}()
		select {
		case <-done:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("a rollback with nothing to prune waited for the exclusive latch")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if created, undo := m.Versions(); created != 0 || undo != 0 {
		t.Fatalf("sidecar keeps %d stamps and %d undo images, want none", created, undo)
	}
}

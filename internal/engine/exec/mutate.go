package exec

import (
	"fmt"

	"repro/internal/engine/catalog"
	"repro/internal/engine/expr"
	"repro/internal/engine/mvcc"
	"repro/internal/engine/storage"
	"repro/internal/engine/types"
)

// MutationLog receives one redo record per applied row mutation, in
// apply order. *wal.Batch satisfies it structurally; a nil log runs the
// mutation without durability (in-memory stores, tests).
type MutationLog interface {
	Insert(table string, row []types.Value) error
	Update(table string, rid storage.RID, row []types.Value) error
	Delete(table string, rid storage.RID) error
}

// RowSource is where a mutation fixes its victims: the live heap for
// the store (Live), the session itself (its snapshot) for a session.
type RowSource interface {
	// Scan calls fn for each row of t in RID order; with idx set, only
	// for the rows whose idx column equals key.
	Scan(t *catalog.Table, idx *catalog.Index, key types.Value, fn func(storage.RID, []types.Value) error) error
}

// Live is the RowSource of the committed store: the heap, narrowed by a
// B+tree probe (whose RIDs come out heap-ordered) when idx is set.
var Live = Snapshot(nil)

// Snapshot returns the RowSource of txn's snapshot (nil: Live), whose
// Scan runs under the shared latch (mvcc.TxnManager.Read).
func Snapshot(txn *mvcc.Txn) RowSource { return snapshotRows{txn} }

type snapshotRows struct{ txn *mvcc.Txn }

func (r snapshotRows) Scan(t *catalog.Table, idx *catalog.Index, key types.Value, fn func(storage.RID, []types.Value) error) error {
	width := len(t.Schema.Columns)
	if idx != nil {
		src := ridRows{rids: idx.Tree.Lookup(key), f: r.txn.Filter(t.V, idx.ColIdx, key)}
		for {
			row := make([]types.Value, width)
			rid, ok, err := src.next(t, nil, row)
			if err != nil || !ok {
				return err
			}
			if err := fn(rid, row); err != nil {
				return err
			}
		}
	}
	f := r.txn.Filter(t.V, -1, types.Null)
	var spare []types.Value
	// pop yields the rows f adds before the RID at, each a row of its own.
	pop := func(at storage.RID) error {
		for f != nil {
			if spare == nil {
				spare = make([]types.Value, width)
			}
			rid, ok := f.Pop(at, nil, spare)
			if !ok {
				break
			}
			row := spare
			spare = nil
			if err := fn(rid, row); err != nil {
				return err
			}
		}
		return nil
	}
	err := t.Heap.Scan(func(rid storage.RID, row []types.Value) error {
		if err := pop(rid); err != nil || !f.Keep(rid) {
			return err
		}
		return fn(rid, row)
	})
	if err != nil {
		return err
	}
	return pop(mvcc.End)
}

// SetCol is one pre-evaluated column assignment of an UPDATE.
type SetCol struct {
	Idx int
	Val types.Value
}

// Mutation is a bound INSERT, UPDATE or DELETE. Ops computes its row
// ops once; the store applies them at once (engine.Applier), a session
// records them for commit (engine.Session.Record).
type Mutation struct {
	Kind  mvcc.OpKind // OpRowInsert, OpRowUpdate or OpRowDelete
	Table *catalog.Table
	// Rows are the INSERT's complete rows in schema order: the planner
	// has folded the VALUES expressions and null-filled missing columns.
	Rows [][]types.Value
	Set  []SetCol
	// Pred is the complete WHERE predicate (nil matches every row).
	// Index and Key optionally narrow the candidates to a B+tree
	// equality; Pred is re-verified on each, so index use never changes
	// results.
	Pred  expr.Expr
	Index *catalog.Index
	Key   types.Value
}

// Ops validates the statement and fixes its victim set against src
// before any row changes — the two-phase discipline that avoids the
// Halloween problem — and returns one op per affected row: inserts in
// VALUES order, updates and deletes in src's RID order. An update op
// carries the row's full new image. A statement that fails returns no
// ops, so applying or recording them is all-or-nothing.
func (m *Mutation) Ops(src RowSource) ([]mvcc.Op, error) {
	table := m.Table.Schema.Table
	if m.Kind == mvcc.OpRowInsert {
		ops := make([]mvcc.Op, len(m.Rows))
		for i, row := range m.Rows {
			if err := m.Table.ValidateRow(row); err != nil {
				return nil, err
			}
			ops[i] = mvcc.Op{Kind: mvcc.OpRowInsert, Table: table, Row: row}
		}
		return ops, nil
	}
	for _, s := range m.Set {
		col := m.Table.Schema.Columns[s.Idx]
		if !s.Val.IsNull() && s.Val.Kind() != col.Type {
			return nil, fmt.Errorf("exec: SET %s expects %v, got %v", col.Name, col.Type, s.Val.Kind())
		}
	}
	var ops []mvcc.Op
	err := src.Scan(m.Table, m.Index, m.Key, func(rid storage.RID, row []types.Value) error {
		ok, err := matches(m.Pred, row)
		if err != nil || !ok {
			return err
		}
		op := mvcc.Op{Kind: m.Kind, Table: table, RID: rid}
		if m.Kind == mvcc.OpRowUpdate {
			op.Row = append([]types.Value(nil), row...)
			for _, s := range m.Set {
				op.Row[s.Idx] = s.Val
			}
		}
		ops = append(ops, op)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ops, nil
}

func matches(pred expr.Expr, row []types.Value) (bool, error) {
	if pred == nil {
		return true, nil
	}
	v, err := pred.Eval(row)
	if err != nil {
		return false, err
	}
	return v.Truthy(), nil
}

package engine

import (
	"fmt"

	"repro/internal/engine/exec"
	"repro/internal/engine/mvcc"
	"repro/internal/engine/storage"
)

// Applier applies row ops against the live catalog: a statement's ops
// on the store, a transaction's recorded ops at commit time. Ops
// reference rows by the RID they had when the ops were computed (or a
// pseudo-RID for a transaction's own inserts); the applier tracks where
// each such row lives now, because an update can move a row to a new
// slot mid-replay. First-committer-wins
// conflict detection guarantees no other transaction has touched these
// rows since the snapshot, so the only moves to track are our own.
type Applier struct {
	db  *Database
	log exec.MutationLog
	// pseudo maps a txn-local insert's pseudo-RID to the heap RID the
	// replayed insert landed on.
	pseudo map[int32]storage.RID
	// trans maps, per table, an op's original RID to the row's current
	// RID after our own moves. Absent means unmoved.
	trans map[string]map[storage.RID]storage.RID
}

// NewApplier returns an applier that writes redo records to log (often
// a *wal.Batch); nil log applies without durability.
func (db *Database) NewApplier(log exec.MutationLog) *Applier {
	return &Applier{
		db:     db,
		log:    log,
		pseudo: make(map[int32]storage.RID),
		trans:  make(map[string]map[storage.RID]storage.RID),
	}
}

// resolve maps an op's RID to the row's current heap RID.
func (a *Applier) resolve(table string, rid storage.RID) (storage.RID, error) {
	if mvcc.IsPseudo(rid) {
		cur, ok := a.pseudo[rid.Slot]
		if !ok {
			return storage.RID{}, fmt.Errorf("engine: unresolved pseudo rid %v", rid)
		}
		return cur, nil
	}
	if m := a.trans[table]; m != nil {
		if cur, ok := m[rid]; ok {
			return cur, nil
		}
	}
	return rid, nil
}

func (a *Applier) setCurrent(table string, opRID, cur storage.RID) {
	if mvcc.IsPseudo(opRID) {
		a.pseudo[opRID.Slot] = cur
		return
	}
	m := a.trans[table]
	if m == nil {
		m = make(map[storage.RID]storage.RID)
		a.trans[table] = m
	}
	m[opRID] = cur
}

// Apply replays one row op. OpDocAdd is not a row op and must be handled
// by the caller (the store layer owns the document loader).
func (a *Applier) Apply(op mvcc.Op) error {
	t := a.db.Catalog.Table(op.Table)
	if t == nil {
		return fmt.Errorf("engine: apply: unknown table %q", op.Table)
	}
	switch op.Kind {
	case mvcc.OpRowInsert:
		rid, err := t.InsertRID(op.Row)
		if err != nil {
			return err
		}
		if mvcc.IsPseudo(op.RID) {
			a.pseudo[op.RID.Slot] = rid
		}
		if a.log != nil {
			return a.log.Insert(op.Table, op.Row)
		}
		return nil
	case mvcc.OpRowUpdate:
		cur, err := a.resolve(op.Table, op.RID)
		if err != nil {
			return err
		}
		newRID, err := t.UpdateRID(cur, op.Row)
		if err != nil {
			return err
		}
		if newRID != cur {
			a.setCurrent(op.Table, op.RID, newRID)
		}
		if a.log != nil {
			// Redo convention: log the pre-move RID plus the full new
			// image; replay re-executes the move.
			return a.log.Update(op.Table, cur, op.Row)
		}
		return nil
	case mvcc.OpRowDelete:
		cur, err := a.resolve(op.Table, op.RID)
		if err != nil {
			return err
		}
		if _, err := t.DeleteRID(cur); err != nil {
			return err
		}
		if a.log != nil {
			return a.log.Delete(op.Table, cur)
		}
		return nil
	default:
		return fmt.Errorf("engine: apply: op kind %d is not a row op", op.Kind)
	}
}

package engine

import (
	"fmt"

	"repro/internal/engine/catalog"
	"repro/internal/engine/exec"
	"repro/internal/engine/mvcc"
	"repro/internal/engine/plan"
	"repro/internal/engine/sql"
	"repro/internal/engine/storage"
	"repro/internal/engine/types"
)

// Session is one transaction's execution context under MVCC snapshot
// isolation. Queries and DML run against the snapshot the session began
// on, plus the session's own uncommitted writes (read-own-writes via a
// per-table overlay). Mutations are recorded as an op list and replayed
// against the shared catalog only at Commit, after first-committer-wins
// conflict detection; Rollback discards them without touching shared
// state. Sessions are not safe for use from multiple goroutines; open
// one session per goroutine instead.
type Session struct {
	db      *Database
	txn     *mvcc.Txn
	planner *plan.Planner
	ops     []mvcc.Op
	overlay map[string]*tableOverlay
	nins    int
	closed  bool
}

// tableOverlay is one table's uncommitted session writes, layered over
// the materialized snapshot view. Keys are view RIDs (pseudo RIDs for
// the session's own inserts).
type tableOverlay struct {
	deleted  map[storage.RID]bool
	updated  map[storage.RID][]types.Value
	inserted []mvcc.VRow
}

// Begin opens a snapshot session. The database must have been opened
// with Config.MVCC (or EnableMVCC called).
func (db *Database) Begin() (*Session, error) {
	if db.TxnMgr == nil {
		return nil, fmt.Errorf("engine: Begin requires Config.MVCC")
	}
	s := &Session{
		db:      db,
		txn:     db.TxnMgr.Begin(),
		overlay: make(map[string]*tableOverlay),
	}
	// Sessions plan serial row-at-a-time trees over materialized views:
	// morsel parallelism, heap page decoding, fragment-index probes, and
	// index nested loops all walk shared physical structures that a
	// snapshot cannot trust, so the Views provider gates them off.
	opts := db.planner.Opts
	opts.DOP = 1
	opts.Views = s
	s.planner = &plan.Planner{Cat: db.planner.Cat, Reg: db.planner.Reg, Opts: opts, Spill: db.planner.Spill}
	return s, nil
}

// Snapshot returns the session's snapshot timestamp.
func (s *Session) Snapshot() uint64 { return s.txn.Snapshot() }

// Ops returns the mutation ops recorded so far, in execution order.
func (s *Session) Ops() []mvcc.Op { return s.ops }

// Touch registers a write-write conflict key for commit-time detection.
func (s *Session) Touch(key string) { s.txn.Touch(key) }

// Record appends ops to the transaction, in order, for Commit to apply.
// Each row op also updates the session's overlay, so the session's later
// reads see it: an insert gets the next pseudo RID, and an update or
// delete registers its row's conflict key. Pseudo RIDs (the session's
// own inserts) carry no key — nothing committed can conflict with a row
// nobody else has seen. Document adds are recorded as they are.
func (s *Session) Record(ops ...mvcc.Op) {
	for _, op := range ops {
		switch op.Kind {
		case mvcc.OpRowInsert:
			op.RID = mvcc.PseudoRID(s.nins)
			s.nins++
			ov := s.tableOverlay(op.Table)
			ov.inserted = append(ov.inserted, mvcc.VRow{RID: op.RID, Row: op.Row})
		case mvcc.OpRowUpdate, mvcc.OpRowDelete:
			ov := s.tableOverlay(op.Table)
			if op.Kind == mvcc.OpRowUpdate {
				ov.updated[op.RID] = op.Row
			} else {
				ov.deleted[op.RID] = true
			}
			if !mvcc.IsPseudo(op.RID) {
				s.txn.Touch(mvcc.RowKey(op.Table, op.RID))
			}
		}
		s.ops = append(s.ops, op)
	}
}

func (s *Session) tableOverlay(table string) *tableOverlay {
	ov := s.overlay[table]
	if ov == nil {
		ov = &tableOverlay{
			deleted: make(map[storage.RID]bool),
			updated: make(map[storage.RID][]types.Value),
		}
		s.overlay[table] = ov
	}
	return ov
}

// TableView implements plan.ViewProvider: the table's rows as of the
// session's snapshot, with the session's own uncommitted writes applied.
// Base rows come out in RID order (heap-scan order), the session's own
// inserts after them in execution order.
func (s *Session) TableView(table string) (*mvcc.View, error) {
	if s.closed {
		return nil, fmt.Errorf("engine: session is closed")
	}
	t := s.db.Catalog.Table(table)
	if t == nil {
		return nil, fmt.Errorf("engine: unknown table %q", table)
	}
	base, err := s.db.TxnMgr.Materialize(t.V, s.txn.Snapshot(), t.Heap.Scan)
	if err != nil {
		return nil, err
	}
	ov := s.overlay[table]
	if ov == nil {
		return base, nil
	}
	out := make([]mvcc.VRow, 0, len(base.Rows)+len(ov.inserted))
	apply := func(vr mvcc.VRow) {
		if ov.deleted[vr.RID] {
			return
		}
		if row, ok := ov.updated[vr.RID]; ok {
			vr.Row = row
		}
		out = append(out, vr)
	}
	for _, vr := range base.Rows {
		apply(vr)
	}
	for _, vr := range ov.inserted {
		apply(vr)
	}
	return &mvcc.View{Rows: out}, nil
}

// Scan implements exec.RowSource over the session view, so a mutation
// fixes its victims against what the session sees. An index access path
// filters the view on the indexed column: the live B+tree may hold rows
// this snapshot must not see.
func (s *Session) Scan(t *catalog.Table, idx *catalog.Index, key types.Value, fn func(storage.RID, []types.Value) error) error {
	view, err := s.TableView(t.Schema.Table)
	if err != nil {
		return err
	}
	for _, vr := range view.Rows {
		if idx != nil && !types.Equal(vr.Row[idx.ColIdx], key) {
			continue
		}
		if err := fn(vr.RID, vr.Row); err != nil {
			return err
		}
	}
	return nil
}

// Query compiles and runs a SELECT under the session snapshot.
func (s *Session) Query(query string) (*Result, error) {
	if s.closed {
		return nil, fmt.Errorf("engine: session is closed")
	}
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	op, err := s.planner.Plan(stmt)
	if err != nil {
		return nil, err
	}
	rows, err := exec.Drain(op)
	if err != nil {
		return nil, fmt.Errorf("engine: executing %q: %w", query, err)
	}
	return &Result{Cols: op.Schema().Names(), Rows: rows}, nil
}

// Exec runs any statement under the session. SELECTs return their row
// count; DML is validated and recorded against the session's view —
// visible to this session immediately, applied to shared state only at
// Commit — and returns the affected-row count. A statement that errors
// records nothing.
func (s *Session) Exec(query string) (int64, error) {
	if s.closed {
		return 0, fmt.Errorf("engine: session is closed")
	}
	stmt, err := sql.ParseStatement(query)
	if err != nil {
		return 0, err
	}
	if _, ok := stmt.(*sql.SelectStmt); ok {
		res, err := s.Query(query)
		if err != nil {
			return 0, err
		}
		return int64(len(res.Rows)), nil
	}
	m, err := s.planner.PlanMutation(stmt)
	if err != nil {
		return 0, err
	}
	ops, err := m.Ops(s)
	if err != nil {
		return 0, err
	}
	s.Record(ops...)
	return int64(len(ops)), nil
}

// ApplyOps replays recorded row ops against the live catalog, writing
// redo records to log. Document ops carry loader state the engine does
// not own; the store layer applies those itself.
func (db *Database) ApplyOps(ops []mvcc.Op, log exec.MutationLog) error {
	a := db.NewApplier(log)
	for _, op := range ops {
		if op.Kind == mvcc.OpDocAdd {
			return fmt.Errorf("engine: ApplyOps cannot apply document ops")
		}
		if err := a.Apply(op); err != nil {
			return err
		}
	}
	return nil
}

// CommitWith runs the full commit protocol with a caller-supplied apply
// function (the store layer wires WAL batching and document loading
// through it). On a conflict the transaction is rolled back and the
// error wraps mvcc.ErrConflict. The session is closed either way.
func (s *Session) CommitWith(apply func(commitTS uint64) error) error {
	if s.closed {
		return fmt.Errorf("engine: session is closed")
	}
	s.closed = true
	if len(s.ops) == 0 {
		apply = nil // read-only: release the snapshot, burn no timestamp
	}
	return s.txn.Commit(apply)
}

// Commit applies the session's recorded DML and makes it durable...
// at this layer, without a WAL: pure-engine sessions commit in memory.
// Stores opened with a WALDir commit through core's session wrapper,
// which logs one batch per transaction.
func (s *Session) Commit() error {
	return s.CommitWith(func(uint64) error {
		return s.db.ApplyOps(s.ops, nil)
	})
}

// Rollback discards the session's uncommitted work and releases its
// snapshot. Safe to call after Commit or twice; extra calls are no-ops.
func (s *Session) Rollback() {
	s.closed = true
	s.txn.Rollback()
}

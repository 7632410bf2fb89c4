package engine

import (
	"fmt"

	"repro/internal/engine/catalog"
	"repro/internal/engine/exec"
	"repro/internal/engine/expr"
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

// Append records an op without overlay bookkeeping; core's document ops
// use it together with OverlayDelete/OverlayUpdate and Touch.
func (s *Session) Append(op mvcc.Op) { s.ops = append(s.ops, op) }

// Touch registers a write-write conflict key for commit-time detection.
func (s *Session) Touch(key string) { s.txn.Touch(key) }

// TouchRow registers the conflict key of a view row; pseudo RIDs (the
// session's own inserts) carry no key — nothing committed can conflict
// with a row nobody else has seen.
func (s *Session) TouchRow(table string, rid storage.RID) {
	if !mvcc.IsPseudo(rid) {
		s.txn.Touch(mvcc.RowKey(table, rid))
	}
}

// NextPseudoRID hands out the next pseudo RID for a session-local
// insert.
func (s *Session) NextPseudoRID() storage.RID {
	rid := mvcc.PseudoRID(s.nins)
	s.nins++
	return rid
}

// OverlayInsert layers an uncommitted insert over the snapshot view.
func (s *Session) OverlayInsert(table string, rid storage.RID, row []types.Value) {
	ov := s.tableOverlay(table)
	ov.inserted = append(ov.inserted, mvcc.VRow{RID: rid, Row: row})
}

// OverlayDelete hides a view row from the session's later reads.
func (s *Session) OverlayDelete(table string, rid storage.RID) {
	s.tableOverlay(table).deleted[rid] = true
}

// OverlayUpdate replaces a view row's image in the session's later
// reads.
func (s *Session) OverlayUpdate(table string, rid storage.RID, row []types.Value) {
	s.tableOverlay(table).updated[rid] = row
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
	op, err := s.planner.PlanStatement(stmt, nil)
	if err != nil {
		return 0, err
	}
	switch m := op.(type) {
	case *exec.InsertOp:
		return s.execInsert(m)
	case *exec.DeleteOp:
		return s.execDelete(m)
	case *exec.UpdateOp:
		return s.execUpdate(m)
	default:
		return 0, fmt.Errorf("engine: unsupported statement in session")
	}
}

func (s *Session) execInsert(m *exec.InsertOp) (int64, error) {
	table := m.Table.Schema.Table
	for _, row := range m.Rows {
		if err := m.Table.ValidateRow(row); err != nil {
			return 0, err
		}
	}
	for _, row := range m.Rows {
		rid := s.NextPseudoRID()
		s.Append(mvcc.Op{Kind: mvcc.OpRowInsert, Table: table, RID: rid, Row: row})
		s.OverlayInsert(table, rid, row)
	}
	return int64(len(m.Rows)), nil
}

func (s *Session) execDelete(m *exec.DeleteOp) (int64, error) {
	table := m.Table.Schema.Table
	victims, err := s.matchView(table, m.Index, m.Key, m.Pred)
	if err != nil {
		return 0, err
	}
	for _, vr := range victims {
		s.Append(mvcc.Op{Kind: mvcc.OpRowDelete, Table: table, RID: vr.RID})
		s.OverlayDelete(table, vr.RID)
		s.TouchRow(table, vr.RID)
	}
	return int64(len(victims)), nil
}

func (s *Session) execUpdate(m *exec.UpdateOp) (int64, error) {
	table := m.Table.Schema.Table
	for _, set := range m.Set {
		col := m.Table.Schema.Columns[set.Idx]
		if !set.Val.IsNull() && set.Val.Kind() != col.Type {
			return 0, fmt.Errorf("exec: SET %s expects %v, got %v", col.Name, col.Type, set.Val.Kind())
		}
	}
	victims, err := s.matchView(table, m.Index, m.Key, m.Pred)
	if err != nil {
		return 0, err
	}
	for _, vr := range victims {
		row := append([]types.Value(nil), vr.Row...)
		for _, set := range m.Set {
			row[set.Idx] = set.Val
		}
		s.Append(mvcc.Op{Kind: mvcc.OpRowUpdate, Table: table, RID: vr.RID, Row: row})
		s.OverlayUpdate(table, vr.RID, row)
		s.TouchRow(table, vr.RID)
	}
	return int64(len(victims)), nil
}

// matchView fixes a DML statement's victim set against the session view
// before any op is recorded — the same two-phase discipline as the
// direct operators. A B+tree access path narrows by filtering the view
// on the indexed column (snapshot-safe index visibility); the full
// predicate is always re-verified.
func (s *Session) matchView(table string, idx *catalog.Index, key types.Value, pred expr.Expr) ([]mvcc.VRow, error) {
	view, err := s.TableView(table)
	if err != nil {
		return nil, err
	}
	var out []mvcc.VRow
	for _, vr := range view.Rows {
		if idx != nil && !types.Equal(vr.Row[idx.ColIdx], key) {
			continue
		}
		ok, err := truthy(pred, vr.Row)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, vr)
		}
	}
	return out, nil
}

func truthy(pred expr.Expr, row []types.Value) (bool, error) {
	if pred == nil {
		return true, nil
	}
	v, err := pred.Eval(row)
	if err != nil {
		return false, err
	}
	return v.Truthy(), nil
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

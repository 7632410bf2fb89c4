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
// on, plus the session's own uncommitted writes (read-own-writes: the
// transaction layers them over its snapshot, mvcc.Txn.Write). Mutations
// are recorded as an op list and replayed against the shared catalog
// only at Commit, after first-committer-wins conflict detection;
// Rollback discards them without touching shared state. Sessions are not
// safe for use from multiple goroutines; open one session per goroutine
// instead.
type Session struct {
	db      *Database
	txn     *mvcc.Txn
	planner *plan.Planner
	ops     []mvcc.Op
	closed  bool
}

// Begin opens a snapshot session. The database must have been opened
// with Config.MVCC (or EnableMVCC called).
func (db *Database) Begin() (*Session, error) {
	if db.TxnMgr == nil {
		return nil, fmt.Errorf("engine: Begin requires Config.MVCC")
	}
	s := &Session{db: db, txn: db.TxnMgr.Begin()}
	// Sessions plan with the store's planner, serially: every access
	// operator filters the RIDs it produces through the snapshot, and a
	// morsel of a parallel scan cannot merge a snapshot's versions.
	opts := db.planner.Opts
	opts.DOP = 1
	s.planner = &plan.Planner{Cat: db.planner.Cat, Reg: db.planner.Reg, Opts: opts, Spill: db.planner.Spill, Txn: s.txn}
	return s, nil
}

// Snapshot returns the session's snapshot timestamp.
func (s *Session) Snapshot() uint64 { return s.txn.Snapshot() }

// Ops returns the mutation ops recorded so far, in execution order.
func (s *Session) Ops() []mvcc.Op { return s.ops }

// Touch registers a write-write conflict key for commit-time detection.
func (s *Session) Touch(key string) { s.txn.Touch(key) }

// Record appends ops to the transaction, in order, for Commit to apply.
// Each row op is also layered over the snapshot (mvcc.Txn.Write), so the
// session's later reads see it. Document adds are recorded as they are.
func (s *Session) Record(ops ...mvcc.Op) {
	for _, op := range ops {
		if op.Kind != mvcc.OpDocAdd {
			op = s.txn.Write(op)
		}
		s.ops = append(s.ops, op)
	}
}

// Scan implements exec.RowSource over the session snapshot, for the
// session's DML and document ops: the rows of t it sees (with idx set,
// those whose idx column equals key), in RID order, own inserts last.
func (s *Session) Scan(t *catalog.Table, idx *catalog.Index, key types.Value, fn func(storage.RID, []types.Value) error) error {
	if s.closed {
		return fmt.Errorf("engine: session is closed")
	}
	return s.db.TxnMgr.Read(func() error { return exec.Snapshot(s.txn).Scan(t, idx, key, fn) })
}

// Query compiles and runs a SELECT under the session snapshot.
func (s *Session) Query(query string) (res *Result, err error) {
	err = s.statement(query, func(op exec.Operator) error {
		rows, err := exec.Drain(op)
		if err != nil {
			return fmt.Errorf("engine: executing %q: %w", query, err)
		}
		res = &Result{Cols: op.Schema().Names(), Rows: rows}
		return nil
	})
	return res, err
}

// Explain returns the physical plan a SELECT gets in the session.
func (s *Session) Explain(query string) (text string, err error) {
	err = s.statement(query, func(op exec.Operator) error {
		text = plan.Explain(op)
		return nil
	})
	return text, err
}

// statement plans a SELECT and runs run on the plan, both under the
// shared latch.
func (s *Session) statement(query string, run func(exec.Operator) error) error {
	if s.closed {
		return fmt.Errorf("engine: session is closed")
	}
	stmt, err := sql.Parse(query)
	if err != nil {
		return err
	}
	return s.db.TxnMgr.Read(func() error {
		op, err := s.planner.Plan(stmt)
		if err != nil {
			return err
		}
		return run(op)
	})
}

// Exec runs any statement under the session. SELECTs return their row
// count; DML is validated and recorded against the session's snapshot —
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

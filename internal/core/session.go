package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/engine/exec"
	"repro/internal/engine/mvcc"
	"repro/internal/engine/wal"
	"repro/internal/xmltree"
)

// Session is one transaction against a concurrent store (Engine.MVCC):
// queries, DML, and document ops all run under the snapshot the session
// began on, and the session's own writes layer over it (read-own-writes).
// Commit applies everything atomically as one WAL batch after
// first-committer-wins conflict detection — a conflicting commit returns
// an error wrapping ErrConflict and the transaction rolls back.
// Exception: documents added in the session are shredded only at commit,
// so their rows are not visible to the session's own reads.
// A Session must be used from a single goroutine.
type Session struct {
	st *Store
	es *engine.Session
}

// ErrConflict is the sentinel a conflicting Commit wraps.
var ErrConflict = mvcc.ErrConflict

// NewSession opens a snapshot transaction. The store must have been
// opened with Engine.MVCC set.
func (st *Store) NewSession() (*Session, error) {
	es, err := st.DB.Begin()
	if err != nil {
		return nil, err
	}
	return &Session{st: st, es: es}, nil
}

// Snapshot returns the session's snapshot timestamp.
func (s *Session) Snapshot() uint64 { return s.es.Snapshot() }

// Query runs a SELECT under the session snapshot.
func (s *Session) Query(query string) (*engine.Result, error) { return s.es.Query(query) }

// Exec runs one SQL statement under the session: SELECTs return their
// row count, DML records the mutation (visible to this session, applied
// at Commit) and returns the affected-row count.
func (s *Session) Exec(query string) (int64, error) { return s.es.Exec(query) }

// Rollback discards the session's work; safe after Commit and twice.
func (s *Session) Rollback() { s.es.Rollback() }

// Ops returns the transaction's recorded operations so far — the list
// Commit will apply, and the input ApplyTxnOps replays on the serial
// oracle of the differential harness.
func (s *Session) Ops() []mvcc.Op { return s.es.Ops() }

// Commit runs conflict detection and, when it passes, applies the
// session's recorded ops to the shared store as one committed WAL batch.
func (s *Session) Commit() error {
	ops := s.es.Ops()
	return s.es.CommitWith(func(uint64) error { return s.st.commitOps(ops) })
}

// AddDocuments schedules documents for load at Commit. Shredding runs at
// commit time under the then-current document-ID counter, so the rows —
// and the assigned IDs — exist only once the transaction commits; the
// session's own reads do not see them. Fresh rows conflict with nobody.
func (s *Session) AddDocuments(docs []*xmltree.Document) error {
	if len(docs) == 0 {
		return nil
	}
	s.es.Record(mvcc.Op{Kind: mvcc.OpDocAdd, Docs: docs})
	return nil
}

// AddXML parses and schedules document texts; see AddDocuments.
func (s *Session) AddXML(texts []string) error {
	docs := make([]*xmltree.Document, len(texts))
	for i, text := range texts {
		doc, err := xmltree.Parse(text)
		if err != nil {
			return err
		}
		docs[i] = doc
	}
	return s.AddDocuments(docs)
}

// RemoveDocument deletes every row the document produced, per the
// registry as of the session snapshot. The victim set is pinned now:
// rows a concurrent transaction adds under the same document ID after
// this snapshot are not part of it (the write-write conflict check
// aborts this commit if any pinned victim — or the document key itself —
// was touched meanwhile).
func (s *Session) RemoveDocument(docID int64) error {
	ops, err := s.st.removeDocumentOps(s.es, docID)
	if err != nil {
		return err
	}
	s.es.Record(ops...)
	s.es.Touch(mvcc.DocKey(docID))
	return nil
}

// SpliceFragment replaces the XADT fragment of the row whose ID is id,
// like Store.SpliceFragment but against the session snapshot: the new
// value is encoded now, the target row resolved in the session snapshot,
// and the update applied at Commit.
func (s *Session) SpliceFragment(table, column string, id int64, fragTexts []string) error {
	op, err := s.st.spliceOp(s.es, table, column, id, fragTexts)
	if err != nil {
		return err
	}
	s.es.Record(op)
	return nil
}

// commit runs fn, which applies one transaction's mutations and logs
// their redo records into b, and commits b as one WAL batch; without a
// WAL, b is nil and nothing is logged. Every store mutation commits
// here: a loaded document, a statement, a session. A batch carries the
// XADT format decision while it is pending, so this is the one place
// that marks it logged.
func (st *Store) commit(fn func(b *wal.Batch) error) error {
	if st.wal == nil {
		return fn(nil)
	}
	b := st.wal.Begin()
	if err := fn(b); err != nil {
		return err
	}
	if st.pendingFormat {
		b.SetFormat(byte(st.Format))
	}
	if err := b.Commit(); err != nil {
		return err
	}
	st.pendingFormat = false
	return nil
}

// commitOps applies a transaction's ops and commits them as one batch.
func (st *Store) commitOps(ops []mvcc.Op) error {
	return st.commit(func(b *wal.Batch) error { return st.applyTxnOps(ops, b) })
}

// direct runs one mutation outside a session, inside the direct
// envelope, as a one-statement transaction: ops computes its row ops
// against the live store (exec.Live), and they commit as a session's do.
func (st *Store) direct(ops func() ([]mvcc.Op, error)) error {
	return st.mvccDirect(func() error {
		o, err := ops()
		if err != nil {
			return err
		}
		return st.commitOps(o)
	})
}

// applyTxnOps applies a transaction's op list to the store, logging redo
// records into b (nil for stores without a WAL, and for the serial
// oracle of the differential harness). Row ops go through one engine
// applier; document adds run the loader with the same batch, assigning
// document IDs in commit order.
func (st *Store) applyTxnOps(ops []mvcc.Op, b *wal.Batch) error {
	var log exec.MutationLog
	if b != nil {
		log = b
	}
	applier := st.DB.NewApplier(log)
	for _, op := range ops {
		if op.Kind == mvcc.OpDocAdd {
			docs, ok := op.Docs.([]*xmltree.Document)
			if !ok {
				return fmt.Errorf("core: malformed document op payload %T", op.Docs)
			}
			if err := st.applyDocAdd(docs, b); err != nil {
				return err
			}
			continue
		}
		if err := applier.Apply(op); err != nil {
			return err
		}
	}
	return nil
}

// applyDocAdd shreds scheduled documents at commit time, into b.
func (st *Store) applyDocAdd(docs []*xmltree.Document, b *wal.Batch) error {
	reg, next, err := st.startDocAdd(docs)
	if err != nil {
		return err
	}
	for _, doc := range docs {
		if err := st.loadDocument(reg, next, doc, b); err != nil {
			return err
		}
		next++
	}
	return nil
}

// ApplyTxnOps replays a committed transaction's ops against a plain
// single-user store, without a WAL — the serial oracle of the
// differential harness. Applying every committed transaction's ops in
// commit order reproduces the concurrent store's state byte for byte.
func ApplyTxnOps(st *Store, ops []mvcc.Op) error {
	return st.applyTxnOps(ops, nil)
}

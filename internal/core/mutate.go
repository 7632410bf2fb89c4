package core

import (
	"fmt"

	"repro/internal/engine/catalog"
	"repro/internal/engine/exec"
	"repro/internal/engine/mvcc"
	"repro/internal/engine/sql"
	"repro/internal/engine/storage"
	"repro/internal/engine/types"
	"repro/internal/engine/wal"
	"repro/internal/mapping"
	"repro/internal/xadt"
	"repro/internal/xmltree"
)

// docRegistryTable records which rows each added document produced, so
// whole documents can be removed or replaced later. The '$' keeps the
// name out of reach of SQL identifiers. Each row spans one relation:
// the document's tuples there carry IDs in (lo, hi]. The table is
// created lazily by the first AddDocuments, so stores that never use
// document-level mutations keep exactly the mapped table set.
const docRegistryTable = "xml$docs"

// ensureDocRegistry returns the document registry table, creating it if
// this store has never tracked documents.
func (st *Store) ensureDocRegistry() (*catalog.Table, error) {
	if t := st.DB.Catalog.Table(docRegistryTable); t != nil {
		return t, nil
	}
	return st.DB.Catalog.CreateTable(docRegistryTable, []catalog.Column{
		{Name: "docid", Type: types.KindInt},
		{Name: "rel", Type: types.KindString},
		{Name: "lo", Type: types.KindInt},
		{Name: "hi", Type: types.KindInt},
	})
}

// nextDocID returns one past the highest registered document ID.
func (st *Store) nextDocID() (int64, error) {
	reg := st.DB.Catalog.Table(docRegistryTable)
	if reg == nil {
		return 1, nil
	}
	var max int64
	err := reg.Heap.Scan(func(_ storage.RID, row []types.Value) error {
		if v := row[0]; !v.IsNull() && v.Kind() == types.KindInt && v.Int() > max {
			max = v.Int()
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return max + 1, nil
}

// AddDocuments loads documents like Load but registers each one under a
// document ID, so it can later be removed with RemoveDocument or swapped
// with ReplaceDocument. Each document is one WAL batch covering both its
// shredded tuples and its registry rows.
func (st *Store) AddDocuments(docs []*xmltree.Document) ([]int64, error) {
	var ids []int64
	err := st.mvccDirect(func() error {
		var err error
		ids, err = st.addDocumentsDirect(docs)
		return err
	})
	return ids, err
}

func (st *Store) addDocumentsDirect(docs []*xmltree.Document) ([]int64, error) {
	if err := st.ensureLoader(docs); err != nil {
		return nil, err
	}
	reg, err := st.ensureDocRegistry()
	if err != nil {
		return nil, err
	}
	next, err := st.nextDocID()
	if err != nil {
		return nil, err
	}
	ids := make([]int64, 0, len(docs))
	for _, doc := range docs {
		if err := st.addDocumentWithID(reg, next, doc); err != nil {
			return ids, err
		}
		ids = append(ids, next)
		next++
	}
	return ids, nil
}

// AddXML parses and adds document texts; see AddDocuments.
func (st *Store) AddXML(texts []string) ([]int64, error) {
	docs := make([]*xmltree.Document, len(texts))
	for i, text := range texts {
		doc, err := xmltree.Parse(text)
		if err != nil {
			return nil, err
		}
		docs[i] = doc
	}
	return st.AddDocuments(docs)
}

// addDocumentWithID loads one document and registers its tuple spans
// under docID, all inside one WAL batch. The loader's per-relation ID
// counters before and after the load delimit exactly this document's
// rows: IDs are dense per relation and never reused.
func (st *Store) addDocumentWithID(reg *catalog.Table, docID int64, doc *xmltree.Document) error {
	var b *wal.Batch
	if st.wal != nil {
		b = st.wal.Begin()
	}
	if err := st.loadDocumentSpans(reg, docID, doc, b); err != nil {
		return err
	}
	if b != nil {
		if err := b.Commit(); err != nil {
			return err
		}
		st.pendingFormat = false
	}
	return nil
}

// loadDocumentSpans shreds one document and registers its tuple spans
// under docID, logging redo records into b when set (the caller owns the
// batch lifecycle: the legacy path commits one batch per document, a
// session commit shares one batch across the whole transaction). The
// pending XADT format decision is logged into the batch but stays
// pending until the caller's commit succeeds.
func (st *Store) loadDocumentSpans(reg *catalog.Table, docID int64, doc *xmltree.Document, b *wal.Batch) error {
	before := st.loader.TupleCounts()
	if b != nil {
		if st.pendingFormat {
			b.SetFormat(byte(st.Format))
		}
		st.loader.OnInsert = b.Insert
	}
	err := st.loader.LoadDocument(doc)
	st.loader.OnInsert = nil
	if err != nil {
		return err
	}
	after := st.loader.TupleCounts()
	for _, rel := range st.Schema.Relations {
		lo, hi := before[rel.Name], after[rel.Name]
		if hi <= lo {
			continue
		}
		row := []types.Value{
			types.NewInt(docID), types.NewString(rel.Name),
			types.NewInt(lo), types.NewInt(hi),
		}
		if err := reg.Insert(row); err != nil {
			return err
		}
		if b != nil {
			if err := b.Insert(docRegistryTable, row); err != nil {
				return err
			}
		}
	}
	return nil
}

// RemoveDocument deletes every row a document produced (per the
// registry) plus its registry entries. On a WAL store the removal is one
// committed batch holding a single logical doc-removal record; recovery
// re-executes the same deterministic procedure.
func (st *Store) RemoveDocument(docID int64) error {
	return st.mvccDirect(func() error { return st.removeDocumentDirect(docID) })
}

func (st *Store) removeDocumentDirect(docID int64) error {
	if st.wal == nil {
		return st.applyRemoveDocument(docID)
	}
	b := st.wal.Begin()
	if err := b.RemoveDoc(docID); err != nil {
		return err
	}
	if err := st.applyRemoveDocument(docID); err != nil {
		return err
	}
	return b.Commit()
}

// applyRemoveDocument removes a document from the live store without
// logging its row deletes: the caller logs the one logical docremove
// frame, and WAL replay of that frame runs this same procedure. It is
// deterministic given the store state, so replay reproduces the exact
// same heap mutations.
func (st *Store) applyRemoveDocument(docID int64) error {
	ops, err := st.removeDocumentOps(exec.Live, docID)
	if err != nil {
		return err
	}
	return st.DB.ApplyOps(ops, nil)
}

// removeDocumentOps computes the row deletes that remove document docID
// as seen through rows (the live store or a session snapshot): every row
// the registry says it produced, then its registry rows. All victims are
// fixed before any op is returned — per span in RID order, then the
// registry rows — so the store and a session delete the same rows in
// the same order, and an error leaves both unchanged.
func (st *Store) removeDocumentOps(rows exec.RowSource, docID int64) ([]mvcc.Op, error) {
	reg := st.DB.Catalog.Table(docRegistryTable)
	if reg == nil {
		return nil, fmt.Errorf("core: store tracks no documents (use AddDocuments)")
	}
	type span struct {
		rel    string
		lo, hi int64
	}
	var spans []span
	var regOps []mvcc.Op
	err := rows.Scan(reg, nil, types.Null, func(rid storage.RID, row []types.Value) error {
		if !row[0].IsNull() && row[0].Kind() == types.KindInt && row[0].Int() == docID {
			if row[1].Kind() != types.KindString || row[2].Kind() != types.KindInt || row[3].Kind() != types.KindInt {
				return fmt.Errorf("core: malformed registry row for document %d", docID)
			}
			spans = append(spans, span{row[1].Str(), row[2].Int(), row[3].Int()})
			regOps = append(regOps, mvcc.Op{Kind: mvcc.OpRowDelete, Table: docRegistryTable, RID: rid})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(spans) == 0 {
		return nil, fmt.Errorf("core: unknown document %d", docID)
	}
	var ops []mvcc.Op
	for _, sp := range spans {
		tbl := st.DB.Catalog.Table(sp.rel)
		rel := st.Schema.Relation(sp.rel)
		if tbl == nil || rel == nil {
			return nil, fmt.Errorf("core: registry references unknown relation %s", sp.rel)
		}
		idCol := idColumn(rel)
		if idCol < 0 {
			return nil, fmt.Errorf("core: relation %s has no ID column", sp.rel)
		}
		err := rows.Scan(tbl, nil, types.Null, func(rid storage.RID, row []types.Value) error {
			if v := row[idCol]; !v.IsNull() && v.Kind() == types.KindInt && v.Int() > sp.lo && v.Int() <= sp.hi {
				ops = append(ops, mvcc.Op{Kind: mvcc.OpRowDelete, Table: sp.rel, RID: rid})
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return append(ops, regOps...), nil
}

// ReplaceDocument swaps a registered document for a new one under the
// same document ID: the old rows are removed, then the new document is
// shredded and registered. The two halves are separate committed
// batches, so a crash between them recovers to the consistent
// removed-but-not-readded state.
func (st *Store) ReplaceDocument(docID int64, doc *xmltree.Document) error {
	if st.loader == nil {
		return fmt.Errorf("core: store holds no documents yet")
	}
	// The two halves are separate MVCC transactions too, mirroring the
	// two committed batches: a reader's snapshot can observe the
	// removed-but-not-readded state, exactly what a crash between the
	// batches recovers to.
	if err := st.RemoveDocument(docID); err != nil {
		return err
	}
	return st.mvccDirect(func() error {
		reg, err := st.ensureDocRegistry()
		if err != nil {
			return err
		}
		return st.addDocumentWithID(reg, docID, doc)
	})
}

// idColumn returns the index of a relation's synthetic ID column.
func idColumn(rel *mapping.Relation) int {
	for i, c := range rel.Columns {
		if c.Kind == mapping.KindID {
			return i
		}
	}
	return -1
}

// SpliceFragment replaces the XADT fragment stored in table.column of
// the row whose ID is id with the given fragment texts, re-encoded under
// the store's storage representation (empty fragTexts stores NULL). Each
// fragment's root element must be the one the column maps (col.Path[0]) —
// the same shape the shredder would have produced — so every consumer of
// the column keeps its structural assumptions. On a WAL store the splice
// is one committed batch holding the row's update record.
func (st *Store) SpliceFragment(table, column string, id int64, fragTexts []string) error {
	return st.mvccDirect(func() error {
		op, err := st.spliceOp(exec.Live, table, column, id, fragTexts)
		if err != nil {
			return err
		}
		return st.logged(func(log exec.MutationLog) error { return st.DB.ApplyOps([]mvcc.Op{op}, log) })
	})
}

// spliceOp computes the row update of a fragment splice (see
// SpliceFragment) against rows, the live store or a session snapshot.
// The new value is encoded now; if several rows carry the ID, the last
// in RID order is the target. An indexed ID column is probed rather than
// scanned; probes yield in RID order too, so the target is the same.
func (st *Store) spliceOp(rows exec.RowSource, table, column string, id int64, fragTexts []string) (mvcc.Op, error) {
	rel := st.Schema.Relation(table)
	if rel == nil {
		return mvcc.Op{}, fmt.Errorf("core: unknown relation %s", table)
	}
	var col *mapping.Column
	ci := -1
	for i := range rel.Columns {
		if rel.Columns[i].Name == column {
			col, ci = &rel.Columns[i], i
			break
		}
	}
	if col == nil {
		return mvcc.Op{}, fmt.Errorf("core: relation %s has no column %s", table, column)
	}
	if col.Kind != mapping.KindXADT {
		return mvcc.Op{}, fmt.Errorf("core: column %s.%s is not an XADT column", table, column)
	}
	want := col.Path[0]
	var frags []*xmltree.Node
	for _, text := range fragTexts {
		doc, err := xmltree.Parse(text)
		if err != nil {
			return mvcc.Op{}, fmt.Errorf("core: parsing fragment: %w", err)
		}
		if doc.Root == nil || doc.Root.Name != want {
			return mvcc.Op{}, fmt.Errorf("core: fragment root must be <%s> for column %s.%s", want, table, column)
		}
		frags = append(frags, doc.Root)
	}
	val := types.Null
	if len(frags) > 0 {
		val = types.NewXADT(xadt.Encode(frags, st.Format).Bytes())
	}
	tbl := st.DB.Catalog.Table(table)
	if tbl == nil {
		return mvcc.Op{}, fmt.Errorf("core: table %s does not exist yet", table)
	}
	idCol := idColumn(rel)
	if idCol < 0 {
		return mvcc.Op{}, fmt.Errorf("core: relation %s has no ID column", table)
	}
	op := mvcc.Op{Kind: mvcc.OpRowUpdate, Table: table}
	err := rows.Scan(tbl, tbl.IndexOn(rel.Columns[idCol].Name), types.NewInt(id), func(rid storage.RID, row []types.Value) error {
		if v := row[idCol]; !v.IsNull() && v.Kind() == types.KindInt && v.Int() == id {
			op.RID, op.Row = rid, row
		}
		return nil
	})
	if err != nil {
		return mvcc.Op{}, err
	}
	if op.Row == nil {
		return mvcc.Op{}, fmt.Errorf("core: no row with %s = %d in %s", rel.Columns[idCol].Name, id, table)
	}
	op.Row = append([]types.Value(nil), op.Row...)
	op.Row[ci] = val
	return op, nil
}

// logged runs fn with a redo log: on a WAL store a fresh batch, committed
// once fn succeeds; otherwise nil.
func (st *Store) logged(fn func(exec.MutationLog) error) error {
	if st.wal == nil {
		return fn(nil)
	}
	b := st.wal.Begin()
	if err := fn(b); err != nil {
		return err
	}
	return b.Commit()
}

// Exec parses and runs one SQL statement. SELECTs execute like Query and
// return their row count; INSERT/UPDATE/DELETE apply the mutation and
// return the affected-row count, committing their redo records as one
// WAL batch on a durable store.
func (st *Store) Exec(query string) (int64, error) {
	stmt, err := sql.ParseStatement(query)
	if err != nil {
		return 0, err
	}
	if _, isSelect := stmt.(*sql.SelectStmt); isSelect {
		res, err := st.Query(query)
		if err != nil {
			return 0, err
		}
		return int64(len(res.Rows)), nil
	}
	var n int64
	err = st.mvccDirect(func() error {
		return st.logged(func(log exec.MutationLog) error {
			var err error
			n, err = st.DB.ExecStatement(stmt, log)
			return err
		})
	})
	return n, err
}

// replayOp re-executes one logged mutation during recovery, after the
// ingress check of its XADT values (through k). The registry table is
// created on demand: a checkpoint taken before the first AddDocuments
// does not hold it, yet the tail may insert into it.
func (st *Store) replayOp(seq uint64, op wal.ScannedOp, k *xadt.Walker) error {
	if op.Kind == wal.OpDocRemove {
		if err := st.applyRemoveDocument(op.DocID); err != nil {
			return fmt.Errorf("core: replaying batch %d removal of document %d: %w", seq, op.DocID, err)
		}
		return nil
	}
	tbl := st.DB.Catalog.Table(op.Table)
	if tbl == nil && op.Table == docRegistryTable {
		var err error
		if tbl, err = st.ensureDocRegistry(); err != nil {
			return err
		}
	}
	if tbl == nil {
		return &wal.CorruptError{Reason: fmt.Sprintf("batch %d references unknown table %s", seq, op.Table)}
	}
	if err := tbl.CheckFragments(k, op.Row); err != nil {
		return fmt.Errorf("core: replaying batch %d into %s: %w", seq, op.Table, err)
	}
	var err error
	switch op.Kind {
	case wal.OpInsert:
		err = tbl.Insert(op.Row)
	case wal.OpDelete:
		_, err = tbl.DeleteRID(op.RID)
	case wal.OpUpdate:
		_, err = tbl.UpdateRID(op.RID, op.Row)
	default:
		err = fmt.Errorf("unknown op kind %d", op.Kind)
	}
	if err != nil {
		return fmt.Errorf("core: replaying batch %d into %s: %w", seq, op.Table, err)
	}
	return nil
}

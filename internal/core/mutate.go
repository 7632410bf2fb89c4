package core

import (
	"fmt"

	"repro/internal/engine/catalog"
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

// applyRemoveDocument executes a document removal against the current
// state. It is deterministic given the store state — victims are
// collected in heap order before any delete — so WAL replay of the
// logical record reproduces the exact same heap mutations.
func (st *Store) applyRemoveDocument(docID int64) error {
	reg := st.DB.Catalog.Table(docRegistryTable)
	if reg == nil {
		return fmt.Errorf("core: store tracks no documents (use AddDocuments)")
	}
	type span struct {
		rid    storage.RID
		rel    string
		lo, hi int64
	}
	var spans []span
	err := reg.Heap.Scan(func(rid storage.RID, row []types.Value) error {
		if !row[0].IsNull() && row[0].Kind() == types.KindInt && row[0].Int() == docID {
			if row[1].Kind() != types.KindString || row[2].Kind() != types.KindInt || row[3].Kind() != types.KindInt {
				return fmt.Errorf("core: malformed registry row for document %d", docID)
			}
			spans = append(spans, span{rid, row[1].Str(), row[2].Int(), row[3].Int()})
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(spans) == 0 {
		return fmt.Errorf("core: unknown document %d", docID)
	}
	for _, sp := range spans {
		tbl := st.DB.Catalog.Table(sp.rel)
		rel := st.Schema.Relation(sp.rel)
		if tbl == nil || rel == nil {
			return fmt.Errorf("core: registry references unknown relation %s", sp.rel)
		}
		idCol := idColumn(rel)
		if idCol < 0 {
			return fmt.Errorf("core: relation %s has no ID column", sp.rel)
		}
		var victims []storage.RID
		err := tbl.Heap.Scan(func(rid storage.RID, row []types.Value) error {
			if v := row[idCol]; !v.IsNull() && v.Kind() == types.KindInt && v.Int() > sp.lo && v.Int() <= sp.hi {
				victims = append(victims, rid)
			}
			return nil
		})
		if err != nil {
			return err
		}
		for _, rid := range victims {
			if _, err := tbl.DeleteRID(rid); err != nil {
				return err
			}
		}
	}
	for _, sp := range spans {
		if _, err := reg.DeleteRID(sp.rid); err != nil {
			return err
		}
	}
	return nil
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

// ReplaceXML parses and replaces one document text; see ReplaceDocument.
func (st *Store) ReplaceXML(docID int64, text string) error {
	doc, err := xmltree.Parse(text)
	if err != nil {
		return err
	}
	return st.ReplaceDocument(docID, doc)
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
	return st.mvccDirect(func() error { return st.spliceFragmentDirect(table, column, id, fragTexts) })
}

func (st *Store) spliceFragmentDirect(table, column string, id int64, fragTexts []string) error {
	rel := st.Schema.Relation(table)
	if rel == nil {
		return fmt.Errorf("core: unknown relation %s", table)
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
		return fmt.Errorf("core: relation %s has no column %s", table, column)
	}
	if col.Kind != mapping.KindXADT {
		return fmt.Errorf("core: column %s.%s is not an XADT column", table, column)
	}
	want := col.Path[0]
	var frags []*xmltree.Node
	for _, text := range fragTexts {
		doc, err := xmltree.Parse(text)
		if err != nil {
			return fmt.Errorf("core: parsing fragment: %w", err)
		}
		if doc.Root == nil || doc.Root.Name != want {
			return fmt.Errorf("core: fragment root must be <%s> for column %s.%s", want, table, column)
		}
		frags = append(frags, doc.Root)
	}
	val := types.Null
	if len(frags) > 0 {
		val = types.NewXADT(xadt.EncodeStored(frags, st.Format).Bytes())
	}

	tbl := st.DB.Catalog.Table(table)
	if tbl == nil {
		return fmt.Errorf("core: table %s does not exist yet", table)
	}
	idCol := idColumn(rel)
	if idCol < 0 {
		return fmt.Errorf("core: relation %s has no ID column", table)
	}
	var target *storage.RID
	var oldRow []types.Value
	err := tbl.Heap.Scan(func(rid storage.RID, row []types.Value) error {
		if v := row[idCol]; !v.IsNull() && v.Kind() == types.KindInt && v.Int() == id {
			r := rid
			target, oldRow = &r, row
		}
		return nil
	})
	if err != nil {
		return err
	}
	if target == nil {
		return fmt.Errorf("core: no row with %s = %d in %s", rel.Columns[idCol].Name, id, table)
	}
	newRow := append([]types.Value(nil), oldRow...)
	newRow[ci] = val
	if _, err := tbl.UpdateRID(*target, newRow); err != nil {
		return err
	}
	if st.wal != nil {
		b := st.wal.Begin()
		if err := b.Update(table, *target, newRow); err != nil {
			return err
		}
		return b.Commit()
	}
	return nil
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
		if st.DB.TxnMgr != nil {
			// Snapshot-consistent read on a concurrent store: run the
			// SELECT under an implicit read-only session.
			s, err := st.NewSession()
			if err != nil {
				return 0, err
			}
			defer s.Rollback()
			return s.Exec(query)
		}
		return st.DB.ExecStatement(stmt, nil)
	}
	var n int64
	err = st.mvccDirect(func() error {
		if st.wal == nil {
			var e error
			n, e = st.DB.ExecStatement(stmt, nil)
			return e
		}
		b := st.wal.Begin()
		var e error
		n, e = st.DB.ExecStatement(stmt, b)
		if e != nil {
			return e
		}
		return b.Commit()
	})
	return n, err
}

// replayOp re-executes one logged mutation during recovery. The registry
// table is created on demand: a checkpoint taken before the first
// AddDocuments does not hold it, yet the tail may insert into it.
func (st *Store) replayOp(seq uint64, op wal.ScannedOp) error {
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

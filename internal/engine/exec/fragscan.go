package exec

import (
	"fmt"

	"repro/internal/engine/catalog"
	"repro/internal/engine/expr"
	"repro/internal/engine/mvcc"
	"repro/internal/engine/storage"
	"repro/internal/engine/types"
)

// IndexedFragScan fetches the candidate rows an XADT fragment index
// produced for an indexable UDF conjunct, in heap order, and re-verifies
// the full pushed predicate on each fetched row. The index only supplies
// a superset of the matching RIDs (its keyword postings match by
// token-substring, its name postings by element presence), so the
// re-verification is what makes results exact: a lossy or conservative
// index can cost time but can never change the rows. Candidates are
// sorted by (page, slot), which is exactly SeqScan's emission order, so
// an indexed plan returns byte-identical rows to the scan it replaces.
type IndexedFragScan struct {
	Table *catalog.Table
	Alias string
	// Cols are the stored columns fetched and emitted, ascending; nil
	// means every column.
	Cols []int
	// RIDs are the candidate rows, sorted in heap order. The slice may be
	// shared with the planner's per-statement probe results: read-only.
	RIDs []storage.RID
	// Pred is the full conjunction of pushed predicates, re-evaluated on
	// every candidate row.
	Pred expr.Expr
	// IndexDesc names the conjuncts the index answered, for EXPLAIN.
	IndexDesc string
	// Txn is as for SeqScan: the versions the snapshot sees instead of
	// the live candidates join them, and Pred re-verifies them too.
	Txn *mvcc.Txn
	// Est is the planner's estimated output cardinality; advisory only.
	Est    float64
	schema *expr.RowSchema
	src    ridRows
}

// NewIndexedFragScan returns an indexed fragment scan emitting the
// stored columns cols (nil: all).
func NewIndexedFragScan(t *catalog.Table, alias string, cols []int, rids []storage.RID, pred expr.Expr, desc string) *IndexedFragScan {
	return &IndexedFragScan{
		Table: t, Alias: alias, Cols: cols, RIDs: rids, Pred: pred, IndexDesc: desc,
		schema: TableSchema(t, alias, cols),
	}
}

// Schema implements Operator.
func (s *IndexedFragScan) Schema() *expr.RowSchema { return s.schema }

// Open implements Operator.
func (s *IndexedFragScan) Open() error {
	s.src.rids, s.src.pos = s.RIDs, 0
	s.src.f = s.Txn.Filter(s.Table.V, -1, types.Null)
	return nil
}

// Next implements Operator.
func (s *IndexedFragScan) Next() ([]types.Value, error) {
	return s.src.row(s.Table, s.Cols, len(s.schema.Cols), s.Pred)
}

// Close implements Operator.
func (s *IndexedFragScan) Close() error {
	s.src.rids, s.src.f = nil, nil
	return nil
}

// String describes the scan for plan explanations; "[idx]" marks plans
// the XADT index rewrite produced.
func (s *IndexedFragScan) String() string {
	out := fmt.Sprintf("IndexedFragScan(%s as %s [idx: %s], %d candidates",
		s.Table.Schema.Table, s.Alias, s.IndexDesc, len(s.RIDs))
	if s.Pred != nil {
		out += fmt.Sprintf(", verify: %s", s.Pred)
	}
	return out + ")"
}

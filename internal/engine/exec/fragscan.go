package exec

import (
	"fmt"

	"repro/internal/engine/catalog"
	"repro/internal/engine/expr"
	"repro/internal/engine/storage"
	"repro/internal/engine/types"
)

// IndexedFragScan fetches the candidate rows an XADT fragment index
// produced for an indexable UDF conjunct, in heap order, and re-verifies
// the full pushed predicate on each fetched row. The index only supplies
// a superset of the matching RIDs (its keyword postings match by
// token-substring, its path postings by element presence), so the
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
	// Est is the planner's estimated output cardinality; advisory only.
	Est    float64
	schema *expr.RowSchema
	pos    int
	row    []types.Value // a fetched row the predicate rejected, reused
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
	s.pos = 0
	return nil
}

// Next implements Operator.
func (s *IndexedFragScan) Next() ([]types.Value, error) {
	for s.pos < len(s.RIDs) {
		if s.row == nil {
			s.row = make([]types.Value, len(s.schema.Cols))
		}
		row := s.row
		if err := s.Table.Heap.GetInto(s.RIDs[s.pos], s.Cols, row); err != nil {
			return nil, err
		}
		s.pos++
		if s.Pred != nil {
			v, err := s.Pred.Eval(row)
			if err != nil {
				return nil, err
			}
			if !v.Truthy() {
				continue
			}
		}
		s.row = nil
		return row, nil
	}
	return nil, nil
}

// Close implements Operator.
func (s *IndexedFragScan) Close() error {
	s.pos = 0
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

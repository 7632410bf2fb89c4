package exec

import (
	"fmt"

	"repro/internal/engine/catalog"
	"repro/internal/engine/expr"
	"repro/internal/engine/mvcc"
	"repro/internal/engine/storage"
	"repro/internal/engine/types"
)

// TableSchema builds the row schema of a table bound under an alias,
// holding the stored columns cols in order (nil: every column). The
// planner binds against it and access operators emit rows of its shape.
func TableSchema(t *catalog.Table, alias string, cols []int) *expr.RowSchema {
	if cols == nil {
		cols = make([]int, len(t.Schema.Columns))
		for j := range cols {
			cols[j] = j
		}
	}
	out := make([]expr.ColInfo, len(cols))
	for k, j := range cols {
		c := t.Schema.Columns[j]
		out[k] = expr.ColInfo{Qualifier: alias, Name: c.Name, Type: c.Type}
	}
	return expr.NewRowSchema(out...)
}

// ridRows reads a RID-ordered list (a B+tree probe's matches, fragment
// index candidates) through its snapshot filter f (nil: none).
type ridRows struct {
	rids  []storage.RID
	pos   int
	f     *mvcc.Filter
	spare []types.Value // a row pred rejected, reused
}

// row returns the next row pred (nil: any) accepts, in a fresh slice.
func (r *ridRows) row(t *catalog.Table, cols []int, width int, pred expr.Expr) ([]types.Value, error) {
	for {
		if r.spare == nil {
			r.spare = make([]types.Value, width)
		}
		_, ok, err := r.next(t, cols, r.spare)
		if err != nil || !ok {
			return nil, err
		}
		if ok, err = matches(pred, r.spare); err != nil {
			return nil, err
		}
		if ok {
			row := r.spare
			r.spare = nil
			return row, nil
		}
	}
}

// next decodes the next row's stored columns cols into out and returns
// its RID.
func (r *ridRows) next(t *catalog.Table, cols []int, out []types.Value) (storage.RID, bool, error) {
	for {
		if r.f != nil {
			at := mvcc.End
			if r.pos < len(r.rids) {
				at = r.rids[r.pos]
			}
			if rid, ok := r.f.Pop(at, cols, out); ok {
				return rid, true, nil
			}
		}
		if r.pos == len(r.rids) {
			return storage.RID{}, false, nil
		}
		at := r.rids[r.pos]
		r.pos++
		if r.f == nil || r.f.Keep(at) {
			return at, true, t.Heap.GetInto(at, cols, out)
		}
	}
}

// scanBatchRows is how many rows a heap scan decodes per cursor call:
// enough to amortize the call over a page run, few enough that the
// decoded column arrays stay cache-sized.
const scanBatchRows = 1024

// SeqScan reads a table front to back. A fused predicate, when set,
// drops rows at the cursor before anything above the scan sees them —
// the destination of the planner's predicate pushdown.
//
// A heap scan decodes whole page runs column-major into private column
// arrays, then evaluates the predicate on one reused row and allocates
// only the rows that pass. Only the stored columns Cols are decoded;
// the others are stepped over in the record.
//
// As the leaf of a parallel pipeline the scan reads one morsel at a
// time: the owning Gather re-targets it with SetRange for every page
// range its worker claims.
type SeqScan struct {
	Table *catalog.Table
	Alias string
	// Cols are the stored columns the scan emits, ascending; nil means
	// every column. The schema holds exactly these.
	Cols []int
	Pred expr.Expr // optional, resolved against the scan schema
	// Txn, when set, is the MVCC transaction whose snapshot the scan
	// reads through mvcc.Filter.
	Txn *mvcc.Txn
	// Est is the planner's estimated output cardinality (rows surviving
	// the fused predicate); zero when no estimate was made. Advisory
	// only — execution never reads it.
	Est    float64
	schema *expr.RowSchema
	cursor *storage.Cursor
	f      *mvcc.Filter
	// morsel is set by SetRange: Open then reads pages [lo, hi) instead
	// of the whole heap.
	morsel bool
	lo, hi int

	// cols[j][0:n] hold the decoded rows of the current cursor call and
	// rids[0:n] their RIDs (under a filter); pos is the next one to emit
	// and row the buffer Pred is evaluated on.
	cols   [][]types.Value
	rids   []storage.RID
	size   int
	n, pos int
	row    []types.Value
}

// NewSeqScan returns a sequential scan of the stored columns cols (nil:
// all) of the table under the alias.
func NewSeqScan(t *catalog.Table, alias string, cols []int) *SeqScan {
	return &SeqScan{Table: t, Alias: alias, Cols: cols, schema: TableSchema(t, alias, cols)}
}

// SetRange targets the scan at pages [lo, hi) for the next Open and
// every later one.
func (s *SeqScan) SetRange(lo, hi int) { s.morsel, s.lo, s.hi = true, lo, hi }

// Schema implements Operator.
func (s *SeqScan) Schema() *expr.RowSchema { return s.schema }

// Open implements Operator.
func (s *SeqScan) Open() error {
	lo, hi := s.lo, s.hi
	if !s.morsel {
		lo, hi = 0, s.Table.Heap.DataPages()
	}
	s.cursor = s.Table.Heap.NewRangeCursor(lo, hi, s.Cols)
	s.n, s.pos = 0, 0
	// Sized to the table, kept across Close (a morsel leaf is re-opened
	// per morsel), grown when the table has.
	if size := min(scanBatchRows, max(1, s.Table.Heap.Rows())); size > s.size {
		s.size = size
		s.cols = make([][]types.Value, len(s.schema.Cols))
		for j := range s.cols {
			s.cols[j] = make([]types.Value, size)
		}
		s.rids, s.row = nil, make([]types.Value, len(s.cols))
	}
	if s.f = s.Txn.Filter(s.Table.V, -1, types.Null); s.f != nil {
		if s.rids == nil {
			s.rids = make([]storage.RID, s.size)
		}
		s.cursor.RIDs = s.rids
	}
	return nil
}

// Next implements Operator.
func (s *SeqScan) Next() ([]types.Value, error) {
	for {
		if s.pos == s.n {
			n, err := s.cursor.NextBatch(s.cols, s.size)
			if err != nil {
				return nil, err
			}
			s.n, s.pos = n, 0
		}
		if s.f == nil || !s.popped() {
			if s.pos == s.n {
				return nil, nil
			}
			s.pos++
			if s.f != nil && !s.f.Keep(s.rids[s.pos-1]) {
				continue
			}
			for j, c := range s.cols {
				s.row[j] = c[s.pos-1]
			}
		}
		if s.Pred != nil {
			v, err := s.Pred.Eval(s.row)
			if err != nil {
				return nil, err
			}
			if !v.Truthy() {
				continue
			}
		}
		return append([]types.Value(nil), s.row...), nil
	}
}

// popped reports whether the filter wrote into s.row a row it merges in
// before the cursor's next one.
func (s *SeqScan) popped() bool {
	at := mvcc.End
	if s.pos < s.n {
		at = s.rids[s.pos]
	}
	_, ok := s.f.Pop(at, s.Cols, s.row)
	return ok
}

// Close implements Operator.
func (s *SeqScan) Close() error {
	s.cursor, s.f = nil, nil
	s.n, s.pos = 0, 0
	return nil
}

// String describes the scan for plan explanations; a morsel leaf is
// labelled MorselScan.
func (s *SeqScan) String() string {
	name := "SeqScan"
	if s.morsel {
		name = "MorselScan"
	}
	if s.Pred != nil {
		return fmt.Sprintf("%s(%s as %s, filter: %s)", name, s.Table.Schema.Table, s.Alias, s.Pred)
	}
	return fmt.Sprintf("%s(%s as %s)", name, s.Table.Schema.Table, s.Alias)
}

// IndexScan fetches the rows whose indexed column equals a key, decoding
// only the stored columns Cols (nil: all) of each.
type IndexScan struct {
	Table *catalog.Table
	Alias string
	Cols  []int
	Index *catalog.Index
	Key   types.Value
	Txn   *mvcc.Txn // see SeqScan.Txn
	// Est is the planner's estimated output cardinality; advisory only.
	Est    float64
	schema *expr.RowSchema
	src    ridRows
}

// NewIndexScan returns an equality index scan emitting the stored
// columns cols (nil: all).
func NewIndexScan(t *catalog.Table, alias string, cols []int, idx *catalog.Index, key types.Value) *IndexScan {
	return &IndexScan{Table: t, Alias: alias, Cols: cols, Index: idx, Key: key, schema: TableSchema(t, alias, cols)}
}

// Schema implements Operator.
func (s *IndexScan) Schema() *expr.RowSchema { return s.schema }

// Open implements Operator.
func (s *IndexScan) Open() error {
	s.src.rids, s.src.pos = s.Index.Tree.Lookup(s.Key, s.src.rids[:0]...), 0
	s.src.f = s.Txn.Filter(s.Table.V, s.Index.ColIdx, s.Key)
	return nil
}

// Next implements Operator.
func (s *IndexScan) Next() ([]types.Value, error) {
	return s.src.row(s.Table, s.Cols, len(s.schema.Cols), nil)
}

// Close implements Operator.
func (s *IndexScan) Close() error {
	s.src.rids, s.src.f = s.src.rids[:0], nil
	return nil
}

// String describes the scan.
func (s *IndexScan) String() string {
	return fmt.Sprintf("IndexScan(%s as %s on %s = %s)",
		s.Table.Schema.Table, s.Alias, s.Index.Column, s.Key)
}

// ValuesScan produces a fixed in-memory row set; tests use it as a stub
// source.
type ValuesScan struct {
	Rows   [][]types.Value
	schema *expr.RowSchema
	pos    int
}

// NewValuesScan wraps rows under the given schema.
func NewValuesScan(schema *expr.RowSchema, rows [][]types.Value) *ValuesScan {
	return &ValuesScan{Rows: rows, schema: schema}
}

// Schema implements Operator.
func (s *ValuesScan) Schema() *expr.RowSchema { return s.schema }

// Open implements Operator.
func (s *ValuesScan) Open() error {
	s.pos = 0
	return nil
}

// Next implements Operator. Each row is a copy the caller owns.
func (s *ValuesScan) Next() ([]types.Value, error) {
	if s.pos >= len(s.Rows) {
		return nil, nil
	}
	row := s.Rows[s.pos]
	if len(row) != len(s.schema.Cols) {
		return nil, fmt.Errorf("exec: values row has %d columns, schema has %d", len(row), len(s.schema.Cols))
	}
	s.pos++
	return append([]types.Value(nil), row...), nil
}

// Close implements Operator.
func (s *ValuesScan) Close() error { return nil }
